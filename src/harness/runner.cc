#include "harness/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "sim/abort.hh"

namespace lacc::harness {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

double
resolveOpScale(const SweepOptions &opts)
{
    return opts.opScale > 0.0 ? opts.opScale : opScaleFromEnv();
}

std::vector<JobResult>
runSweep(const std::vector<Job> &jobs, const SweepOptions &opts)
{
    std::vector<JobResult> out(jobs.size());
    if (jobs.empty())
        return out;

    const double scale = resolveOpScale(opts);

    // The single "you are overriding a deliberate sweep" warning
    // implementation lives with ConfigOverrides (sim/overrides.hh).
    {
        std::vector<const SystemConfig *> cfgs;
        cfgs.reserve(jobs.size());
        for (const auto &j : jobs)
            cfgs.push_back(&j.cfg);
        opts.overrides.warnIfOverridingSweep(cfgs);
    }

    const unsigned repeat = opts.effectiveRepeat();
    std::atomic<std::size_t> next{0};

    const auto worker = [&] {
        while (true) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            Job job = jobs[i];
            opts.overrides.apply(job.cfg);
            if (opts.progress)
                std::fprintf(stderr, "[bench] %s\n", job.label.c_str());
            // Repeats are bit-identical (deterministic simulation);
            // keep the first result, accumulate only wall clock.
            const auto start = Clock::now();
            RunResult r;
            bool failed = false;
            std::string reason;
            try {
                r = runBenchmark(job.bench, job.cfg, scale,
                                 opts.timeoutMs);
                for (unsigned rep = 1; rep < repeat; ++rep)
                    runBenchmark(job.bench, job.cfg, scale,
                                 opts.timeoutMs);
            } catch (const RunAbort &a) {
                // One doomed cell (watchdog timeout, unrecoverable
                // injected fault) must not kill the sweep: record it
                // as failed and keep going.
                failed = true;
                reason = std::string(a.tag()) + ": " + a.what();
                r = RunResult{};
                if (opts.progress)
                    std::fprintf(stderr, "[bench] %s FAILED (%s)\n",
                                 job.label.c_str(), reason.c_str());
            }
            out[i] = JobResult{job, std::move(r), secondsSince(start),
                               repeat, failed, std::move(reason)};
        }
    };

    // Each job builds a whole system, so more workers than hardware
    // threads only multiplies memory: cap the pool there.
    const unsigned want = opts.jobs == 0 ? 1 : opts.jobs;
    const unsigned budget =
        std::max(1u, std::thread::hardware_concurrency());
    const unsigned capped = std::min(want, budget);
    if (capped != want) {
        std::fprintf(stderr,
                     "[bench] warning: --jobs %u exceeds the machine's"
                     " %u hardware threads; clamping to --jobs %u\n",
                     want, budget, capped);
    }
    const std::size_t n = std::min<std::size_t>(capped, jobs.size());
    if (n <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(n);
        for (std::size_t t = 0; t < n; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }
    return out;
}

} // namespace lacc::harness
