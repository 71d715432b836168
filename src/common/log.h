/**
 * @file
 * Logging and error reporting in the gem5 spirit: inform/warn for status,
 * fatal for user errors (clean exit), panic for internal invariant
 * violations (abort).
 */

#ifndef HMCSIM_COMMON_LOG_H_
#define HMCSIM_COMMON_LOG_H_

#include <stdexcept>
#include <string>

namespace hmcsim {

/** Severity of a log message. */
enum class LogLevel {
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
    Silent = 4,
};

/** Global log configuration. */
class Logger
{
  public:
    /** Set the minimum level that is emitted. */
    static void setLevel(LogLevel level);

    /** Current minimum level. */
    static LogLevel level();

    /** Emit a message at @p level with a severity prefix. */
    static void emit(LogLevel level, const std::string &msg);

    /**
     * Route messages into an internal buffer instead of stderr.
     * Used by unit tests to assert on log output.
     */
    static void captureBegin();

    /** Stop capturing and return everything captured. */
    static std::string captureEnd();
};

/** Status message for normal operation. */
void inform(const std::string &msg);

/** Something questionable happened but simulation can continue. */
void warn(const std::string &msg);

/** Exception carrying a fatal() message. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Exception carrying a panic() message. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/**
 * Unrecoverable user error (bad configuration, invalid arguments).
 * Throws FatalError carrying @p msg without logging it, so tests can
 * assert on it and main() prints it once when it catches and exits.
 */
[[noreturn]] void fatal(const std::string &msg);

/** Internal invariant violation: a simulator bug. Throws PanicError. */
[[noreturn]] void panic(const std::string &msg);

/**
 * Hook invoked (once, before the exception is thrown) on every panic().
 * Used by the observability layer to dump the packet-trace flight
 * recorder as a crash diagnostic.  Passing nullptr clears it; the
 * previous hook is returned so scoped owners can restore it.
 */
using PanicHook = void (*)();
PanicHook setPanicHook(PanicHook hook);

}  // namespace hmcsim

#endif  // HMCSIM_COMMON_LOG_H_
