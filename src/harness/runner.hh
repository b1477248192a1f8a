/**
 * @file
 * Parallel sweep runner: shards independent runBenchmark() calls
 * across a fixed-size thread pool.
 *
 * Thread-safety audit (why sharding whole runs is safe)
 * -----------------------------------------------------
 * Each Job is simulated by runBenchmark(), which constructs a private
 * SyntheticWorkload and a private Multicore per call; no simulation
 * state is shared between runs. The library-wide pieces a worker does
 * touch are:
 *
 *  - sim/rng.hh: Rng is a plain value type with per-instance state;
 *    every workload owns its own instances seeded from the config, so
 *    there is no global RNG stream to race on.
 *  - sim/log.cc: the verbose flag is a std::atomic<bool> (set before
 *    workers start) and each message is formatted into one buffer
 *    before a single locked fprintf, so lines never interleave.
 *  - workload/suite.cc: the name/size tables are function-local
 *    `static const` data — C++11 magic statics make first-touch
 *    construction safe, and they are immutable afterwards.
 *  - std::getenv("LACC_SCALE"): read-only; nothing in the library
 *    calls setenv. The runner resolves the scale once up front anyway
 *    so all jobs of a sweep agree on it.
 *
 * Determinism: results are written into a pre-sized vector at the
 * job's grid index, each simulation is bit-deterministic given
 * (bench, cfg, scale), and floating-point accumulation happens inside
 * a single run (never across runs), so a parallel sweep produces
 * bit-identical JobResults to a serial one (tests/test_harness.cc
 * guards this).
 */

#ifndef LACC_HARNESS_RUNNER_HH
#define LACC_HARNESS_RUNNER_HH

#include <vector>

#include "harness/registry.hh"
#include "sim/overrides.hh"

namespace lacc::harness {

/** Sweep execution knobs (the lacc_bench CLI maps onto these). */
struct SweepOptions
{
    /** Worker threads; 1 = run in the calling thread. */
    unsigned jobs = 1;
    /** Op-count scale; <= 0 resolves LACC_SCALE (default 1.0). */
    double opScale = -1.0;
    /**
     * Simulate every job this many times (throughput mode, maps onto
     * `lacc_bench --repeat`). Simulations are bit-deterministic, so
     * the repeats produce identical statistics; only the wall-clock
     * fields accumulate. Amortizes timer noise when measuring
     * ops_per_sec on short sweeps.
     */
    unsigned repeat = 1;

    /** The repeat count actually executed (0 is treated as 1). */
    unsigned effectiveRepeat() const { return repeat == 0 ? 1 : repeat; }
    /** Emit a "[bench] <label>" line to stderr as each job starts. */
    bool progress = true;
    /**
     * Per-run wall-clock watchdog in milliseconds (maps onto
     * `lacc_bench --timeout-ms`); <= 0 disarms. An expired run is
     * recorded as failed ("timeout"), not fatal to the sweep.
     */
    double timeoutMs = 0.0;
    /**
     * CLI config overrides applied to every job before it runs:
     * protocol/network/faults force a named variant (maps onto
     * `lacc_bench --protocol/--network/--faults`).
     */
    ConfigOverrides overrides;
};

/** @return @p opts.opScale if positive, else the LACC_SCALE value. */
double resolveOpScale(const SweepOptions &opts);

/**
 * Run every job, @p opts.jobs at a time (capped at the host's
 * hardware threads), and return the results in job order (independent
 * of scheduling).
 */
std::vector<JobResult> runSweep(const std::vector<Job> &jobs,
                                const SweepOptions &opts);

} // namespace lacc::harness

#endif // LACC_HARNESS_RUNNER_HH
