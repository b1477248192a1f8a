/**
 * @file
 * Randomized litmus fuzzer: generate tiny sharing-heavy multi-core
 * traces, run them through every named protocol (and a couple of
 * fabrics), and check every protocol invariant plus the
 * sequentially-consistent reference memory (verify/invariants.hh) —
 * both after the full timed run and under a stepwise replay that
 * checks invariants after every single access.
 *
 * Failures are shrunk with a ddmin-style one-op-at-a-time reduction
 * (lock acquire/release pairs are co-removed — an unmatched release
 * would fatal() out of the process) and written to disk as
 * TraceWorkload text repros with the violations appended as comments,
 * so a failure seeds the corpus in tests/litmus/.
 *
 * Everything is deterministic in (seed, iteration): re-running with a
 * failure's seed reproduces it exactly.
 */

#ifndef LACC_VERIFY_FUZZ_HH
#define LACC_VERIFY_FUZZ_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "workload/trace_file.hh"

namespace lacc {
namespace verify {

/** Knobs of one fuzzing campaign (CLI: bench/lacc_verify.cc). */
struct FuzzOptions
{
    std::uint64_t seed = 1;
    std::uint32_t iters = 25;     //!< traces to generate
    std::uint32_t cores = 4;      //!< cores per trace
    std::uint32_t opsPerCore = 24;
    /** Protocol name; empty = every name in protocolNames(). */
    std::string protocol;
    /** Network factory key; empty = {"mesh", "xbar"}. */
    std::string network;
    /** Where to write shrunk repro traces; empty = don't write. */
    std::string reproDir;
    /**
     * Fault plan applied to every generated config (fault/plan.hh);
     * empty = fault-free. Under faults, a RunAbort (retry-budget
     * exhaustion, unrecoverable double-bit) counts as *detected* —
     * the campaign only fails on invariant/reference-memory
     * violations, i.e. silent corruption. Shrinking co-minimizes the
     * fault schedule: it first retries the violation fault-free (and
     * drops the plan when the bug reproduces without it), then halves
     * faultRate between op-removal passes while the failure persists.
     */
    std::string faults;
    double faultRate = -1.0; //!< base fault rate; < 0 = plan default
    std::optional<std::uint64_t> faultSeed; //!< seed; unset = default
};

/** Outcome of a campaign. */
struct FuzzResult
{
    std::uint64_t runs = 0;     //!< trace x config executions
    std::uint64_t failures = 0; //!< executions with >= 1 violation
    std::vector<std::string> reproPaths; //!< repro files written
    std::string firstReport;    //!< rendered first failure (shrunk)
};

/** Run a campaign; deterministic in FuzzOptions. */
FuzzResult runFuzz(const FuzzOptions &opt);

/**
 * The sharing-biased small system configuration the fuzzer (and the
 * corpus replay test) runs traces under: tiny L1/L2 so evictions and
 * set conflicts happen within a few dozen ops, PCT/RAT thresholds low
 * enough that private/remote transitions are exercised, ACKwise p=2 so
 * pointer overflow is reachable with 3 sharers.
 */
SystemConfig fuzzConfig(std::uint32_t cores);

/**
 * Run @p w under @p cfg and return every violation found (empty =
 * clean): a full timed run checked with checkAll, and a round-robin
 * replay on a fresh system that checks every invariant after every
 * individual access (catches transient corruption the final state
 * re-absorbs).
 *
 * @p evidence_path when non-empty, the trace is saved there *before*
 * running, so an uncatchable fatal()/panic() still leaves the failing
 * input on disk.
 */
std::vector<std::string> checkTrace(const TraceWorkload &w,
                                    const SystemConfig &cfg,
                                    const std::string &evidence_path = "");

/**
 * Shrink a failing trace to a 1-minimal repro: repeatedly remove
 * single ops (lock pairs together) while the violation persists.
 */
TraceWorkload shrinkTrace(const TraceWorkload &w, const SystemConfig &cfg,
                          const std::string &evidence_path = "");

} // namespace verify
} // namespace lacc

#endif // LACC_VERIFY_FUZZ_HH
