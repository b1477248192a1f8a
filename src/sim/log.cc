#include "sim/log.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace lacc {

namespace {

/**
 * Atomic so the parallel sweep runner (harness/runner.cc) can read it
 * from worker threads without a data race. Writers are expected to
 * call setVerbose() before spawning workers; there is no ordering
 * guarantee for mid-run flips.
 */
std::atomic<bool> verboseEnabled{true};

void
vprint(const char *tag, const char *fmt, va_list args)
{
    // One message = one stream operation where possible: build the
    // line first so concurrent warn()s from sweep workers don't
    // interleave mid-line.
    char body[1024];
    const int needed = std::vsnprintf(body, sizeof body, fmt, args);
    std::fprintf(stderr, "%s: %s%s\n", tag, body,
                 needed >= static_cast<int>(sizeof body)
                     ? " [...truncated]"
                     : "");
}
} // namespace

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vprint("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vprint("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vprint("warn", fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    if (!verboseEnabled)
        return;
    va_list args;
    va_start(args, fmt);
    vprint("info", fmt, args);
    va_end(args);
}

std::string
vfmt(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return std::string(buf);
}

void
setVerbose(bool verbose)
{
    verboseEnabled = verbose;
}

bool
isVerbose()
{
    return verboseEnabled;
}

} // namespace lacc
