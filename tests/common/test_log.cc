#include <gtest/gtest.h>

#include <string>

#include "common/log.h"

namespace hmcsim {
namespace {

class LogTest : public ::testing::Test
{
  protected:
    void SetUp() override { previous_ = Logger::level(); }
    void TearDown() override { Logger::setLevel(previous_); }
    LogLevel previous_ = LogLevel::Warn;
};

TEST_F(LogTest, CaptureWarn)
{
    Logger::setLevel(LogLevel::Warn);
    Logger::captureBegin();
    warn("something odd");
    const std::string out = Logger::captureEnd();
    EXPECT_NE(out.find("warn: something odd"), std::string::npos);
}

TEST_F(LogTest, LevelFiltering)
{
    Logger::setLevel(LogLevel::Warn);
    Logger::captureBegin();
    inform("you should not see this");
    warn("but this yes");
    const std::string out = Logger::captureEnd();
    EXPECT_EQ(out.find("not see"), std::string::npos);
    EXPECT_NE(out.find("but this yes"), std::string::npos);
}

TEST_F(LogTest, InfoLevelShowsInform)
{
    Logger::setLevel(LogLevel::Info);
    Logger::captureBegin();
    inform("status line");
    const std::string out = Logger::captureEnd();
    EXPECT_NE(out.find("info: status line"), std::string::npos);
}

TEST_F(LogTest, SilentSuppressesEverything)
{
    Logger::setLevel(LogLevel::Silent);
    Logger::captureBegin();
    warn("hidden");
    Logger::emit(LogLevel::Error, "also hidden");
    EXPECT_EQ(Logger::captureEnd(), "");
}

TEST_F(LogTest, FatalThrowsWithMessage)
{
    Logger::setLevel(LogLevel::Silent);
    try {
        fatal("bad user input");
        FAIL() << "fatal() must throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad user input");
    }
}

TEST_F(LogTest, FatalDoesNotLogItsMessage)
{
    // The catcher prints what(); logging too would print it twice.
    Logger::setLevel(LogLevel::Debug);
    Logger::captureBegin();
    std::string what;
    try {
        fatal("bad key");
    } catch (const FatalError &e) {
        what = e.what();
    }
    EXPECT_EQ(Logger::captureEnd(), "");
    EXPECT_EQ(what, "bad key");
}

TEST_F(LogTest, PanicThrowsLogicError)
{
    Logger::setLevel(LogLevel::Silent);
    EXPECT_THROW(panic("invariant broken"), PanicError);
}

TEST_F(LogTest, FatalIsNotCatchableAsPanic)
{
    Logger::setLevel(LogLevel::Silent);
    bool caught_fatal = false;
    try {
        fatal("x");
    } catch (const PanicError &) {
        FAIL() << "FatalError must not be a PanicError";
    } catch (const FatalError &) {
        caught_fatal = true;
    }
    EXPECT_TRUE(caught_fatal);
}

}  // namespace
}  // namespace hmcsim
