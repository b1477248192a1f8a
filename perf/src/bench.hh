/**
 * @file
 * The benchmark's workloads and the checked, timed runs over them.
 *
 * Everything here drives the simulator through its public API only:
 * makeBenchmark, Multicore (construct, run, stats, testAccess),
 * verify::checkAll and verify::enumerate. Every run uses the serial
 * engine, no fault plan and, except for the one checked run, the
 * functional oracle off — the same settings as runBenchmark.
 */

#ifndef LACC_PERF_BENCH_HH
#define LACC_PERF_BENCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "trace.hh"
#include "verify/enumerate.hh"

namespace lacc {
namespace perf {

/** One named benchmark workload; perf/README.md gives the rationale. */
struct WorkloadDef
{
    const char *name;
    const char *why;      //!< one-line reason the workload exists
    const char *bench;    //!< suite benchmark; nullptr for enumerate
    std::uint32_t cores;
    std::uint32_t meshWidth;
    double opScale;       //!< makeBenchmark op_scale
};

/** The four workloads, in reporting order. */
const std::vector<WorkloadDef> &workloadDefs();

/** @return the workload called @p name, or nullptr. */
const WorkloadDef *findWorkload(const std::string &name);

/** True for the enumeration workload (no suite benchmark). */
inline bool
isEnumerate(const WorkloadDef &w)
{
    return w.bench == nullptr;
}

/** The enumeration the enumerate workload explores. */
verify::EnumOptions enumOptions();

/**
 * The system a workload simulates; @p seed becomes SystemConfig::seed,
 * which only the workload generators read.
 */
SystemConfig workloadConfig(const WorkloadDef &w, std::uint64_t seed);

/**
 * Build the workload's op streams: makeBenchmark for the simulation
 * workloads. For enumerate it is a seeded random path over the
 * enumerator's access alphabet (every core reads, writes and fetches
 * the enumerated line, between short Compute ops, with one barrier):
 * the enumerator's own accesses, run through Multicore::run so that
 * the workload has simulated time and energy and can be step-traced.
 */
std::unique_ptr<Workload> buildWorkload(const WorkloadDef &w,
                                        const SystemConfig &cfg);

/** Failed runs against attempted runs, with the reasons. */
class Ledger
{
  public:
    /** Count one run; @p error empty means it succeeded. */
    void record(const std::string &error);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return reasons_.size(); }
    const std::vector<std::string> &reasons() const { return reasons_; }
    double failFrac() const;

  private:
    std::uint64_t attempted_ = 0;
    std::vector<std::string> reasons_;
};

/** How a simulation run is driven. */
enum class RunMode : std::uint8_t {
    Timed,   //!< plain run, functional oracle off
    Checked, //!< functional oracle on, then verify::checkAll
    Traced,  //!< plain run through a StepTracer
};

/** One simulation run: host times and simulated outcome. */
struct SimRun
{
    std::string error;          //!< empty when the run succeeded
    double workloadBuildS = 0.0; //!< buildWorkload
    double systemBuildS = 0.0;   //!< Multicore construction
    double runS = 0.0;           //!< Multicore::run
    std::uint64_t simOps = 0;    //!< retired instructions
    std::uint64_t digest = 0;    //!< statsSignature
    SystemStats stats;

    // Traced runs only.
    StepLog steps;
    std::vector<std::uint32_t> nextNs; //!< per Workload::next call
    double unattributedFrac = 0.0;     //!< share of runS in no interval

    double setupS() const { return workloadBuildS + systemBuildS; }
};

/**
 * Build and run @p w once. A RunAbort, a functional error or a
 * checkAll violation is returned in SimRun::error, never thrown.
 * @p timeout_ms > 0 arms Multicore's watchdog.
 */
SimRun runSim(const WorkloadDef &w, const SystemConfig &cfg, RunMode mode,
              double timeout_ms = 0.0);

/**
 * Count @p r in @p ledger. A run that succeeded must repeat @p ref's
 * statsSignature and energy exactly (same workload, same seed); if it
 * does not, it is recorded as failed, with @p what naming the run.
 */
void recordRun(Ledger &ledger, SimRun &r, const SimRun *ref,
               const char *what);

/** The first successful run of @p runs, or nullptr. */
const SimRun *reference(const std::vector<SimRun> &runs);

/** One verify::enumerate call, timed. */
struct EnumRun
{
    double seconds = 0.0;
    verify::EnumResult result;
};

EnumRun runEnumerate();

/** Why an enumeration does not count as a clean, exhaustive one. */
std::string enumError(const verify::EnumResult &r);

/**
 * Standalone timings of the enumerator's building blocks on
 * Multicore(enumConfig(3, "lacc", "mesh")): a rebuild (construction),
 * each testAccess of a short seeded path from reset, and the
 * verify::checkAll after it.
 */
struct VerifyProbe
{
    std::vector<double> rebuildUs;
    std::vector<double> accessNs;
    std::vector<double> checkAllUs;
    std::string error; //!< first checkAll violation, if any
};

VerifyProbe probeVerify(std::uint64_t seed, double seconds);

/**
 * The slowest core's Fig 9 latency breakdown. Every cycle of the run's
 * completion time has exactly one cause in it.
 */
LatencyBreakdown criticalPath(const SystemStats &s);

/**
 * Empty when the run's simulated figures are self-consistent: the
 * critical-path breakdown sums to the completion time.
 */
std::string consistencyError(const SystemStats &s);

/** Linear-interpolated quantile @p q in [0, 1] of @p v (0 if empty). */
double quantile(std::vector<double> v, double q);

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

} // namespace perf
} // namespace lacc

#endif // LACC_PERF_BENCH_HH
