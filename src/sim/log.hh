/**
 * @file
 * Minimal gem5-style logging: panic / fatal / warn / inform.
 *
 * panic() flags an internal simulator bug and aborts; fatal() flags a
 * user/configuration error and exits cleanly; warn()/inform() print and
 * continue.
 *
 * Thread-safety: the verbose flag is atomic and every message is
 * formatted into a single buffer before one locked fprintf, so
 * concurrent sweep workers (harness/runner.hh) cannot interleave
 * mid-line. Call setVerbose() before spawning workers; flips during a
 * sweep have no ordering guarantee.
 */

#ifndef LACC_SIM_LOG_HH
#define LACC_SIM_LOG_HH

#include <cstdarg>
#include <string>

namespace lacc {

/** Abort with a formatted message; use for internal invariant violations. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit(1) with a formatted message; use for user/configuration errors. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr and continue. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational message to stderr and continue. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * printf into a std::string, truncated to 511 characters (the
 * verifier's violation and trace names).
 */
std::string vfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Enable/disable inform() output (benches silence it). */
void setVerbose(bool verbose);

/** @return whether inform() output is enabled. */
bool isVerbose();

} // namespace lacc

#endif // LACC_SIM_LOG_HH
