#include "common/status.hpp"

#include <gtest/gtest.h>

#include <string>

namespace hykv {
namespace {

TEST(StatusTest, StatusNameCoversAllCodes) {
  for (const auto code :
       {StatusCode::kOk, StatusCode::kNotFound, StatusCode::kNotStored,
        StatusCode::kBufferTooSmall, StatusCode::kOutOfMemory,
        StatusCode::kServerError, StatusCode::kNetworkError,
        StatusCode::kTimedOut, StatusCode::kInvalidArgument,
        StatusCode::kInProgress, StatusCode::kShutdown, StatusCode::kServerDown,
        StatusCode::kIoError, StatusCode::kBusy}) {
    EXPECT_NE(status_name(code), "UNKNOWN");
    EXPECT_FALSE(status_name(code).empty());
    // to_string is the compatibility alias: always the same spelling.
    EXPECT_EQ(to_string(code), status_name(code));
  }
}

TEST(StatusTest, OkHelper) {
  EXPECT_TRUE(ok(StatusCode::kOk));
  EXPECT_FALSE(ok(StatusCode::kNotFound));
}

TEST(ResultTest, ValueRoundTrip) {
  Result<std::string> r(std::string("payload"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.status(), StatusCode::kOk);
  EXPECT_EQ(r.value(), "payload");
}

TEST(ResultTest, ErrorCarriesCode) {
  Result<int> r(StatusCode::kNotFound);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string(1000, 'x'));
  const std::string moved = std::move(r).value();
  EXPECT_EQ(moved.size(), 1000u);
}

}  // namespace
}  // namespace hykv
