/**
 * @file
 * Result sink: assembles the BENCH_<experiment>.json document for a
 * completed sweep (schema kBenchJsonSchemaVersion) and drives whole
 * experiments end to end for the lacc_bench CLI.
 *
 * Document layout (docs/BENCHMARKS.md has the full schema):
 *
 *   {
 *     "schema_version": 3,
 *     "experiment": "fig08",
 *     "title": "...", "description": "...",
 *     "op_scale": 1.0, "repeat": 1,
 *     "jobs": 168, "wall_seconds": 12.3,
 *     "sim_ops": 123456, "wall_ms": 12300.0, "ops_per_sec": 1.0e7,
 *     "figure": { ... experiment-specific, incl. "table" ... },
 *     "runs": [ {"label", "bench", "wall_seconds",
 *                "sim_ops", "wall_ms", "ops_per_sec",
 *                "status", ["fail_reason",]
 *                "config": {...}, "result": {...}}, ... ]
 *   }
 *
 * Throughput fields (schema v2): sim_ops counts the simulated
 * operations of ONE pass over the sweep at both document levels (the
 * top-level value equals the sum of the per-run values at any
 * --repeat), wall_ms is the wall clock in milliseconds, and
 * ops_per_sec multiplies the repeats back in: sim_ops * repeat /
 * simulation wall seconds (the top-level rate divides by the sum of
 * per-run walls, excluding report formatting).
 */

#ifndef LACC_HARNESS_SINK_HH
#define LACC_HARNESS_SINK_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "harness/registry.hh"
#include "harness/runner.hh"

namespace lacc::harness {

/** A finished experiment: sweep results plus the report's JSON. */
struct ExperimentOutcome
{
    const Experiment *exp = nullptr;
    std::vector<JobResult> results;
    Json figure;
    double opScale = 1.0;
    unsigned repeat = 1;      //!< repeats per job (throughput mode)
    double wallSeconds = 0.0; //!< whole sweep incl. report
};

/** Assemble the full BENCH_<name>.json document for @p outcome. */
Json documentFor(const ExperimentOutcome &outcome);

/**
 * Write @p doc to `<dir>/BENCH_<name>.json` (creating @p dir first).
 * fatal() on I/O errors so CI fails loudly rather than uploading a
 * truncated artifact.
 */
void writeJsonFile(const std::string &dir, const std::string &name,
                   const Json &doc);

/**
 * Run one experiment end to end: sweep with @p opts, format the text
 * output to @p text_out, and return the outcome (for JSON emission).
 */
ExperimentOutcome runExperiment(const Experiment &exp,
                                const SweepOptions &opts,
                                std::ostream &text_out);

/**
 * Crash-safe resume probe (`lacc_bench --resume`): does
 * `<dir>/BENCH_<name>.json` already hold a complete, current
 * artifact for @p exp? True only when the file parses as JSON, its
 * schema_version matches kBenchJsonSchemaVersion, its experiment
 * field is @p exp's name, and the runs array length equals the jobs
 * count — so corrupt, truncated, or stale-schema artifacts are
 * re-run rather than trusted.
 */
bool validArtifactExists(const std::string &dir, const Experiment &exp);

} // namespace lacc::harness

#endif // LACC_HARNESS_SINK_HH
