#include <gtest/gtest.h>

#include <cstdlib>

#include "util/result.hpp"
#include "util/status.hpp"
#include "util/string_util.hpp"

namespace wde {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument), "InvalidArgument");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string taken = std::move(r).value();
  EXPECT_EQ(taken, "payload");
}

TEST(ResultDeathTest, AccessingErrorValueAborts) {
  Result<int> r = Status::Internal("boom");
  EXPECT_DEATH((void)r.value(), "boom");
}

TEST(CheckDeathTest, FailedCheckAborts) {
  EXPECT_DEATH(WDE_CHECK(false, "custom message"), "custom message");
}

TEST(StringUtilTest, FormatBehavesLikePrintf) {
  EXPECT_EQ(Format("x=%d y=%.2f", 3, 1.5), "x=3 y=1.50");
  EXPECT_EQ(Format("%s", ""), "");
}

TEST(StringUtilTest, FormatLongStrings) {
  const std::string long_str(500, 'a');
  EXPECT_EQ(Format("%s!", long_str.c_str()).size(), 501u);
}

TEST(StringUtilTest, EnvIntFallbacks) {
  ::unsetenv("WDE_TEST_ENV_INT");
  EXPECT_EQ(EnvInt("WDE_TEST_ENV_INT", 5), 5);
  ::setenv("WDE_TEST_ENV_INT", "12", 1);
  EXPECT_EQ(EnvInt("WDE_TEST_ENV_INT", 5), 12);
  ::setenv("WDE_TEST_ENV_INT", "garbage", 1);
  EXPECT_EQ(EnvInt("WDE_TEST_ENV_INT", 5), 5);
  ::unsetenv("WDE_TEST_ENV_INT");
}

}  // namespace
}  // namespace wde
