// Hash functions used across hykv.
//
// - jenkins_oaat: memcached's classic one-at-a-time key hash; used by the
//   server hash table (store/hash_map.hpp) and, through its top bits, by
//   ShardedManager's shard selection.
// - xxh64: fast 64-bit hash; places keys on the client's server-selection
//   ring (client/ring.hpp) and checksums SSD records (store/item.hpp).
// - mix64: splitmix64 finalizer for integer keys, seeds and fault draws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hykv {

/// Bob Jenkins' one-at-a-time hash (memcached's default "jenkins" hash).
std::uint32_t jenkins_oaat(std::string_view data) noexcept;

/// xxHash64 over a byte range.
std::uint64_t xxh64(const void* data, std::size_t len, std::uint64_t seed = 0) noexcept;
inline std::uint64_t xxh64(std::string_view data, std::uint64_t seed = 0) noexcept {
  return xxh64(data.data(), data.size(), seed);
}

/// 64-bit finalizer (splitmix64) for integer keys; good avalanche.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace hykv
