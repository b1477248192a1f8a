/**
 * @file
 * Result formatting for bench/ outputs: fixed-width text tables, small
 * numeric helpers (geometric mean), and JSON serialization of system
 * configurations and run results (the BENCH_*.json payloads emitted by
 * the harness sink; see docs/BENCHMARKS.md for the schema).
 */

#ifndef LACC_SYSTEM_REPORT_HH
#define LACC_SYSTEM_REPORT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/json.hh"

namespace lacc {

struct SystemConfig;
struct SystemStats;
struct RunResult;

/** Fixed-width text table (prints like the paper's data tables). */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append a row; must match the header arity. */
    void addRow(std::vector<std::string> cells);

    /** Render with column alignment to @p os. */
    void print(std::ostream &os) const;

    const std::vector<std::string> &headers() const { return headers_; }
    const std::vector<std::vector<std::string>> &rows() const
    {
        return rows_;
    }

    /** @return {"headers": [...], "rows": [[...], ...]}. */
    Json toJson() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed precision. */
std::string fmt(double v, int precision = 3);

/** Format a percentage (0.153 -> "15.3%"). */
std::string fmtPct(double fraction, int precision = 1);

/** Geometric mean of positive values (returns 0 for empty input). */
double geomean(const std::vector<double> &values);

// ---------------------------------------------------------------------------
// JSON serialization (schema kBenchJsonSchemaVersion; docs/BENCHMARKS.md).
// ---------------------------------------------------------------------------

/**
 * Version stamp written into every BENCH_*.json document.
 * v2 added the throughput fields: top-level repeat / sim_ops /
 * wall_ms / ops_per_sec, the same trio per run record, and sim_ops in
 * every serialized RunResult.
 * v3 added the fault-injection layer: faults / fault_rate / fault_seed
 * in the config block, the "faults" counter object in every stats
 * block, verify_violations in every RunResult, and the per-run
 * "status" field ("ok" / "failed" with fail_reason) written by the
 * sweep sink. The optional top-level "profile" object is no longer
 * written; it was optional, so v3 readers are unaffected.
 */
constexpr int kBenchJsonSchemaVersion = 3;

/** Serialize every SystemConfig field (enums as their names). */
Json toJson(const SystemConfig &cfg);

/**
 * Serialize aggregated run statistics: completion time, the six-way
 * energy and latency vectors (Figs 8-9), the miss taxonomy (Fig 10),
 * L2 / network / protocol counters, and the utilization histograms
 * (Figs 1-2) as paper buckets. Per-core breakdowns are summed, not
 * emitted individually, to keep sweep documents small.
 */
Json toJson(const SystemStats &stats);

/** Serialize a RunResult (stats plus the headline scalars). */
Json toJson(const RunResult &result);

/**
 * Order-sensitive FNV-1a digest of every *integer* field of
 * @p stats: per-core counters and latency breakdowns, the miss
 * taxonomy, L2/network/protocol counters, and both utilization
 * histograms. Energy (the only floating-point state) is deliberately
 * excluded so the digest is identical across compilers and FP
 * contraction settings; energy regressions are caught by the bench
 * JSON goldens instead. FaultStats is also excluded: fault-free runs
 * must keep their pre-fault golden digests bit-identical, and the
 * fault-schedule determinism test digests architectural state that
 * the recovery machinery perturbs (latency, traffic), which already
 * covers the counters indirectly.
 *
 * Used by the golden-hash determinism test (tests/test_determinism.cc)
 * that guards protocol refactors: any behavioral drift in the
 * coherence engine changes the digest.
 */
std::uint64_t statsSignature(const SystemStats &stats);

} // namespace lacc

#endif // LACC_SYSTEM_REPORT_HH
