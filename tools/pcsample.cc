/**
 * @file
 * A PC sampler to LD_PRELOAD into any command: it needs no hook in the
 * simulator. tools/pcsample.py runs a command under it and symbolizes
 * the result; see docs/BENCHMARKS.md "Profiling".
 *
 * At load, the library arms setitimer(ITIMER_PROF) for 1 kHz of process
 * CPU time. The kernel delivers the signal at its own accounting
 * granularity, which can be well below that (about 250 Hz on a 4-vCPU
 * Xeon VM), so the dump also records the CPU seconds the process used
 * and the report derives the measured rate from them. Each SIGPROF
 * stores the interrupted program counter into a static array
 * (async-signal-safe: one atomic index bump and one store, no
 * allocation). At exit it disarms the timer and writes the CPU
 * seconds, /proc/self/maps and the PCs to $PCSAMPLE_OUT/<pid>.txt, so
 * a command that forks or execs leaves one file per process.
 */

#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr long kIntervalUs = 1000;              // 1 kHz requested
constexpr std::size_t kMaxSamples = 1u << 21;   // ~35 min of CPU

std::uintptr_t samples[kMaxSamples];
std::atomic<std::size_t> taken{0};
bool armed = false;

std::uintptr_t
interruptedPc(const ucontext_t *uc)
{
#if defined(__x86_64__)
    return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "pcsample: unsupported architecture"
#endif
}

void
onSigprof(int, siginfo_t *, void *ctx)
{
    const std::size_t i = taken.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples)
        samples[i] = interruptedPc(static_cast<const ucontext_t *>(ctx));
}

void
setTimer(long us)
{
    itimerval tv{};
    tv.it_interval.tv_usec = us;
    tv.it_value.tv_usec = us;
    setitimer(ITIMER_PROF, &tv, nullptr);
}

__attribute__((constructor)) void
arm()
{
    if (std::getenv("PCSAMPLE_OUT") == nullptr) {
        std::fputs("pcsample: PCSAMPLE_OUT is not set; not sampling\n",
                   stderr);
        return;
    }
    struct sigaction sa{};
    sa.sa_sigaction = onSigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0)
        return;
    armed = true;
    setTimer(kIntervalUs);
}

__attribute__((destructor)) void
dump()
{
    if (!armed)
        return;
    setTimer(0);
    char path[4096];
    std::snprintf(path, sizeof(path), "%s/%ld.txt",
                  std::getenv("PCSAMPLE_OUT"), static_cast<long>(getpid()));
    std::FILE *out = std::fopen(path, "w");
    if (out == nullptr) {
        std::fprintf(stderr, "pcsample: cannot write %s\n", path);
        return;
    }
    const std::size_t n = taken.load();
    const std::size_t kept = n < kMaxSamples ? n : kMaxSamples;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double cpu_s =
        static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
            1e-6;
    std::fprintf(out,
                 "requested_hz %ld\ncpu_s %.6f\nsamples %zu\n"
                 "dropped %zu\nmaps\n",
                 1000000 / kIntervalUs, cpu_s, kept, n - kept);
    if (std::FILE *maps = std::fopen("/proc/self/maps", "r")) {
        char buf[4096];
        std::size_t got;
        while ((got = std::fread(buf, 1, sizeof(buf), maps)) > 0)
            std::fwrite(buf, 1, got, out);
        std::fclose(maps);
    }
    std::fputs("pcs\n", out);
    for (std::size_t i = 0; i < kept; ++i)
        std::fprintf(out, "%" PRIxPTR "\n", samples[i]);
    std::fclose(out);
}

} // namespace
