#include "common/hash.hpp"

#include <bit>
#include <cstring>

namespace hykv {
namespace {

inline std::uint64_t read_u64(const unsigned char* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint32_t read_u32(const unsigned char* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

constexpr std::uint64_t kXxPrime1 = 11400714785074694791ULL;
constexpr std::uint64_t kXxPrime2 = 14029467366897019727ULL;
constexpr std::uint64_t kXxPrime3 = 1609587929392839161ULL;
constexpr std::uint64_t kXxPrime4 = 9650029242287828579ULL;
constexpr std::uint64_t kXxPrime5 = 2870177450012600261ULL;

inline std::uint64_t xx_round(std::uint64_t acc, std::uint64_t input) noexcept {
  acc += input * kXxPrime2;
  acc = std::rotl(acc, 31);
  acc *= kXxPrime1;
  return acc;
}

inline std::uint64_t xx_merge_round(std::uint64_t acc, std::uint64_t val) noexcept {
  acc ^= xx_round(0, val);
  acc = acc * kXxPrime1 + kXxPrime4;
  return acc;
}

}  // namespace

std::uint32_t jenkins_oaat(std::string_view data) noexcept {
  std::uint32_t hash = 0;
  for (const char c : data) {
    hash += static_cast<unsigned char>(c);
    hash += hash << 10;
    hash ^= hash >> 6;
  }
  hash += hash << 3;
  hash ^= hash >> 11;
  hash += hash << 15;
  return hash;
}

std::uint64_t xxh64(const void* data, std::size_t len, std::uint64_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + len;
  std::uint64_t h;

  if (len >= 32) {
    std::uint64_t v1 = seed + kXxPrime1 + kXxPrime2;
    std::uint64_t v2 = seed + kXxPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kXxPrime1;
    const unsigned char* const limit = end - 32;
    do {
      v1 = xx_round(v1, read_u64(p));
      v2 = xx_round(v2, read_u64(p + 8));
      v3 = xx_round(v3, read_u64(p + 16));
      v4 = xx_round(v4, read_u64(p + 24));
      p += 32;
    } while (p <= limit);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = xx_merge_round(h, v1);
    h = xx_merge_round(h, v2);
    h = xx_merge_round(h, v3);
    h = xx_merge_round(h, v4);
  } else {
    h = seed + kXxPrime5;
  }

  h += static_cast<std::uint64_t>(len);
  while (p + 8 <= end) {
    h ^= xx_round(0, read_u64(p));
    h = std::rotl(h, 27) * kXxPrime1 + kXxPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<std::uint64_t>(read_u32(p)) * kXxPrime1;
    h = std::rotl(h, 23) * kXxPrime2 + kXxPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= static_cast<std::uint64_t>(*p) * kXxPrime5;
    h = std::rotl(h, 11) * kXxPrime1;
    ++p;
  }

  h ^= h >> 33;
  h *= kXxPrime2;
  h ^= h >> 29;
  h *= kXxPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace hykv
