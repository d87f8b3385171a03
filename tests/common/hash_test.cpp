#include "common/hash.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace hykv {
namespace {

TEST(JenkinsTest, DeterministicAndSpread) {
  EXPECT_EQ(jenkins_oaat("key-1"), jenkins_oaat("key-1"));
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(jenkins_oaat("key-" + std::to_string(i)));
  }
  // No catastrophic collisions over a small key set.
  EXPECT_GE(seen.size(), 999u);
}

TEST(Xxh64Test, MatchesPublishedVectors) {
  // Reference XXH64 outputs for seed 0. The SSD record checksum is the low
  // 32 bits of this hash, so these pin the bytes hykv writes to the device.
  EXPECT_EQ(xxh64(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(xxh64("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(xxh64("abc"), 0x44BC2CF5AD770999ULL);
}

TEST(Xxh64Test, SeedAndLengthSensitivity) {
  const std::string data(100, 'x');
  EXPECT_NE(xxh64(data, 0), xxh64(data, 1));
  EXPECT_NE(xxh64(data.substr(0, 99), 0), xxh64(data, 0));
  EXPECT_EQ(xxh64(data, 7), xxh64(data.data(), data.size(), 7));
}

TEST(Xxh64Test, AllInputPathsCovered) {
  // Exercise <4, <8, <32 and >=32 byte paths.
  for (const std::size_t len : {0u, 3u, 7u, 15u, 31u, 32u, 33u, 100u, 1000u}) {
    const std::string a(len, 'a');
    std::string b = a;
    if (len > 0) b[len / 2] = 'b';
    EXPECT_EQ(xxh64(a), xxh64(a)) << len;
    if (len > 0) {
      EXPECT_NE(xxh64(a), xxh64(b)) << len;
    }
  }
}

TEST(Mix64Test, InjectiveOnSample) {
  std::set<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 10000; ++i) out.insert(mix64(i));
  EXPECT_EQ(out.size(), 10000u);
}

}  // namespace
}  // namespace hykv
