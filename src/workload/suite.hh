/**
 * @file
 * The 21-benchmark suite of Table 2, expressed as synthetic specs.
 *
 * Every benchmark the paper evaluates (six SPLASH-2, six PARSEC, four
 * Parallel-MI-Bench, two UHPC graph benchmarks, tsp, dfs, matmul) is
 * modeled as an archetype mix tuned to its published characteristics:
 * the L1-D miss rate band and miss-type composition of Fig 10, the
 * utilization-at-removal distributions of Figs 1-2, and the §5
 * behavioral call-outs (capacity-vs-sharing conversions, lock
 * intensity, Limited_1 mis-seeding direction, Adapt1-way pathology).
 * `lacc_bench --filter table2` prints the full mapping table (see
 * docs/ARCHITECTURE.md "Workloads").
 */

#ifndef LACC_WORKLOAD_SUITE_HH
#define LACC_WORKLOAD_SUITE_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "workload/archetypes.hh"

namespace lacc {

/** Names of the 21 benchmarks, in the paper's Figure 8/9 order. */
const std::vector<std::string> &benchmarkNames();

/** @return true if @p name is one of the 21 benchmarks. */
bool isBenchmark(const std::string &name);

/**
 * Build the spec for a named benchmark.
 *
 * @param name     one of benchmarkNames()
 * @param cfg      system configuration (core count, line size, seed)
 * @param op_scale multiplies the per-phase access budget (1.0 = the
 *                 repository default, sized so whole-suite sweeps run
 *                 in minutes; raise for higher-fidelity runs)
 */
SyntheticSpec benchmarkSpec(const std::string &name,
                            const SystemConfig &cfg,
                            double op_scale = 1.0);

/** Convenience: construct the workload directly. */
std::unique_ptr<SyntheticWorkload>
makeBenchmark(const std::string &name, const SystemConfig &cfg,
              double op_scale = 1.0);

/** Table 2 problem-size description for a benchmark (paper text). */
const char *benchmarkProblemSize(const std::string &name);

} // namespace lacc

#endif // LACC_WORKLOAD_SUITE_HH
