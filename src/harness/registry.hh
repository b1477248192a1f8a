/**
 * @file
 * The experiment list of the unified benchmark harness.
 *
 * Every paper figure/table reproduction and extension study is an
 * Experiment: a grid of configuration points x benchmarks, declared
 * once as data, plus a report function that formats the paper-shaped
 * text table and the figure-specific JSON. The sweep itself is
 * executed by harness/runner.hh, possibly across threads, so
 * experiments never run simulations directly; a report reads each run
 * by its (point, bench) coordinate through a Sweep.
 *
 * The built-in experiments (fig01, fig02, fig08..fig14, table1,
 * table2, ablation, ackwise, scaling, network, litmus, faults) are
 * the list experiments() returns, defined in harness/experiments.cc.
 */

#ifndef LACC_HARNESS_REGISTRY_HH
#define LACC_HARNESS_REGISTRY_HH

#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/json.hh"
#include "system/experiment.hh"

namespace lacc::harness {

/** One benchmark x configuration point of an experiment's sweep. */
struct Job
{
    std::string bench;  //!< benchmark name (workload/suite.hh)
    SystemConfig cfg;   //!< full system configuration for this run
    std::string label;  //!< progress label, e.g. "fig8 barnes PCT=4"
};

/** A completed Job with its simulation result and wall-clock cost. */
struct JobResult
{
    Job job;
    /** Result of the job's (identical) repeats; see repeats below. */
    RunResult result;
    /** Wall clock summed over all repeats of this job. */
    double wallSeconds = 0.0;
    /** Times the job was simulated (SweepOptions::repeat). */
    std::uint32_t repeats = 1;
    /**
     * The run aborted (RunAbort: watchdog timeout or an unrecoverable
     * injected fault). `result` holds defaults; the sink records the
     * run with "status": "failed" and the reason, the JSON checkers
     * skip its per-run validations, and Sweep::value() reads NaN.
     */
    bool failed = false;
    std::string failReason; //!< "<tag>: <detail>" when failed

    /**
     * Simulated operations per wall second over this job's repeats
     * (0 when no wall time was recorded).
     */
    double
    opsPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(result.simOps) * repeats /
                         wallSeconds
                   : 0.0;
    }
};

/** One configuration of an experiment's grid. */
struct Point
{
    std::string label; //!< run-label part, e.g. "PCT=4"; may be empty
    SystemConfig cfg;
};

struct Sweep;

/** A figure/table reproduction: its grid and its report. */
struct Experiment
{
    std::string name;        //!< list key, e.g. "fig08"
    std::string title;       //!< banner first line
    std::string subtitle;    //!< banner second line
    std::string description; //!< one-liner for `lacc_bench --list`

    /** Run-label prefix, e.g. "fig8"; may be empty. */
    std::string tag;
    /** The grid's configurations (empty for config-only tables). */
    std::vector<Point> points;
    /** The benchmarks every point runs. */
    std::vector<std::string> benches;
    /**
     * Run each bench's points together, labeled "<tag> <bench>
     * <point>"; otherwise run point by point, labeled "<tag> <point>
     * <bench>".
     */
    bool benchMajor = false;

    /**
     * Write the text output below the banner (the sink prints the
     * banner from title/subtitle first) and return the
     * figure-specific JSON fragment (normalized tables, geomeans,
     * ...). The generic run records are added by the sink, not here.
     */
    std::function<Json(const Sweep &, std::ostream &)> report;

    /** Position of point @p p's run on bench @p b in jobs(). */
    std::size_t
    index(std::size_t p, std::size_t b) const
    {
        return benchMajor ? b * points.size() + p
                          : p * benches.size() + b;
    }

    /** The grid's runs, in sweep order. */
    std::vector<Job> jobs() const;
};

/** An experiment's sweep results, read by grid coordinate. */
struct Sweep
{
    const Experiment &exp;
    const std::vector<JobResult> &results; //!< in exp.jobs() order
    double opScale;                        //!< resolved op-count scale

    /**
     * Point @p p's run on bench @p b; panic() when out of range or
     * when results does not hold exactly one result per job.
     */
    const JobResult &at(std::size_t p, std::size_t b) const;

    /** @p f of point @p p's run on bench @p b, NaN if the run failed. */
    template <typename F>
    double
    value(std::size_t p, std::size_t b, F f) const
    {
        const JobResult &jr = at(p, b);
        return jr.failed ? std::numeric_limits<double>::quiet_NaN()
                         : static_cast<double>(std::invoke(f, jr.result));
    }
};

/** The built-in experiments, in suite order. */
const std::vector<Experiment> &experiments();

/**
 * Experiments whose name contains @p filter as a substring, in suite
 * order; an empty filter matches everything.
 */
std::vector<const Experiment *> match(const std::string &filter);

} // namespace lacc::harness

#endif // LACC_HARNESS_REGISTRY_HH
