#include "common/log.h"

#include <iostream>
#include <sstream>

namespace hmcsim {

namespace {

LogLevel g_level = LogLevel::Warn;
bool g_capturing = false;
std::ostringstream g_capture;

const char *
prefixFor(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug: ";
      case LogLevel::Info: return "info: ";
      case LogLevel::Warn: return "warn: ";
      case LogLevel::Error: return "error: ";
      case LogLevel::Silent: return "";
    }
    return "";
}

}  // namespace

void
Logger::setLevel(LogLevel level)
{
    g_level = level;
}

LogLevel
Logger::level()
{
    return g_level;
}

void
Logger::emit(LogLevel level, const std::string &msg)
{
    if (level < g_level)
        return;
    if (g_capturing) {
        g_capture << prefixFor(level) << msg << '\n';
    } else {
        std::cerr << prefixFor(level) << msg << '\n';
    }
}

void
Logger::captureBegin()
{
    g_capturing = true;
    g_capture.str("");
}

std::string
Logger::captureEnd()
{
    g_capturing = false;
    return g_capture.str();
}

void
inform(const std::string &msg)
{
    Logger::emit(LogLevel::Info, msg);
}

void
warn(const std::string &msg)
{
    Logger::emit(LogLevel::Warn, msg);
}

void
fatal(const std::string &msg)
{
    // Not logged: the catcher reports what(), so the message is
    // printed once.
    throw FatalError(msg);
}

namespace {
PanicHook g_panicHook = nullptr;
}  // namespace

PanicHook
setPanicHook(PanicHook hook)
{
    PanicHook prev = g_panicHook;
    g_panicHook = hook;
    return prev;
}

void
panic(const std::string &msg)
{
    Logger::emit(LogLevel::Error, "panic: " + msg);
    if (g_panicHook) {
        // Disarm before running: a hook that panics must not recurse.
        PanicHook hook = g_panicHook;
        g_panicHook = nullptr;
        hook();
        g_panicHook = hook;
    }
    throw PanicError(msg);
}

}  // namespace hmcsim
