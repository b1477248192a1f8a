/**
 * @file
 * lacc_perf: the repository benchmark. One workload per process (so
 * peak RSS is the workload's own), one simulation thread.
 *
 *   lacc_perf --workload NAME --seed N --seconds S --trace 0|1
 *             [--doc FILE] [--commit SHA] [--cpu MODEL]
 *   lacc_perf --list
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones (see perf/README.md). Both check the outputs: the last stdout
 * line is {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "sim/json.hh"

#ifndef LACC_PERF_COMPILER
#define LACC_PERF_COMPILER "unknown"
#endif
#ifndef LACC_PERF_BUILD_TYPE
#define LACC_PERF_BUILD_TYPE "unknown"
#endif

using namespace lacc;
using namespace lacc::perf;

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char *kModelNote =
    "unvalidated: the repository holds no hardware reference for the "
    "simulated cycles and energy (tests/test_claims.cc checks only the "
    "paper's directional claims), so no error figure is given";

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string doc;
    std::string commit = "unknown";
    std::string cpu = "unknown";
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "lacc_perf: %s\nusage: lacc_perf --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--doc FILE] [--commit SHA] "
                 "[--cpu MODEL]\n       lacc_perf --list\n",
                 msg.c_str());
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const char *s)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || s[0] == '-')
        usage(flag + " wants a non-negative integer, got '" + s + "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--list") {
            for (const WorkloadDef &w : workloadDefs())
                std::printf("%-14s %s\n", w.name, w.why);
            std::exit(0);
        }
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const char *v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = parseUint(a, v);
            have_seed = true;
        } else if (a == "--seconds") {
            const std::uint64_t s = parseUint(a, v);
            if (s < 1 || s > 3600)
                usage("--seconds must be in [1, 3600]");
            o.seconds = static_cast<double>(s);
            have_seconds = true;
        } else if (a == "--trace") {
            const std::uint64_t t = parseUint(a, v);
            if (t > 1)
                usage("--trace must be 0 or 1");
            o.trace = t == 1;
            have_trace = true;
        } else if (a == "--doc") {
            o.doc = v;
        } else if (a == "--commit") {
            o.commit = v;
        } else if (a == "--cpu") {
            o.cpu = v;
        } else {
            usage("unknown argument " + a);
        }
    }
    if (o.workload.empty() || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    if (findWorkload(o.workload) == nullptr) {
        std::string names;
        for (const WorkloadDef &w : workloadDefs())
            names += std::string(names.empty() ? "" : ", ") + w.name;
        usage("unknown workload '" + o.workload + "' (have: " + names + ")");
    }
    return o;
}

/** One reported number. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string detail; //!< sample count and tail, for people
};

/**
 * "n <what>; median m; pXX v": pXX is the highest of p90/p99/p99.9 with
 * at least ten samples beyond it, on the worse side of the metric.
 */
std::string
timingDetail(const std::vector<double> &v, bool higher_is_better,
             const char *what)
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "%zu %s; median %.6g", v.size(), what,
                  median(v));
    std::string s = buf;
    double level = 0.0;
    for (const double l : {0.9, 0.99, 0.999})
        if (static_cast<double>(v.size()) * (1.0 - l) >= 10.0)
            level = l;
    if (level == 0.0)
        return s + "; no percentile has 10 samples beyond it";
    const double q = higher_is_better ? 1.0 - level : level;
    std::snprintf(buf, sizeof buf, "; p%g %.6g", 100.0 * q, quantile(v, q));
    return s + buf;
}

/**
 * Quantile of integer nanosecond samples, interpolated within the run
 * of tied values at that rank (the grouped-data quantile), so that
 * clock granularity does not quantize it.
 */
double
groupedQuantile(std::vector<std::uint32_t> v, double q)
{
    if (v.empty())
        return 0.0;
    const double rank = q * static_cast<double>(v.size());
    const auto k = std::min(static_cast<std::size_t>(rank), v.size() - 1);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                     v.end());
    const std::uint32_t x = v[k];
    std::size_t below = 0, equal = 0;
    for (const std::uint32_t s : v) {
        below += s < x;
        equal += s == x;
    }
    return x - 0.5 + (rank - static_cast<double>(below)) /
                         static_cast<double>(equal);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

Clock::time_point
deadlineIn(double s)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(s));
}

/**
 * True while the window ending at @p deadline has room for one more
 * iteration as long as the last one (@p last_s), so that a window is
 * overrun by at most the work done after it.
 */
bool
roomFor(Clock::time_point deadline, double last_s)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(last_s)) <=
           deadline;
}

std::vector<double>
collect(const std::vector<SimRun> &runs, double (*f)(const SimRun &))
{
    std::vector<double> v;
    for (const SimRun &r : runs)
        if (r.error.empty())
            v.push_back(f(r));
    return v;
}

double
opsPerSecond(const SimRun &r)
{
    return static_cast<double>(r.simOps) / r.runS;
}

double
best(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/**
 * The end-to-end metrics (--trace 0). Throughput is the best run's: on
 * a shared host the slow runs measure the neighbours, and the fastest
 * run in a window is the steadiest estimate of the program's own speed
 * (perf/README.md, "Noise"). Set-up time is the median of every run's.
 */
void
measureEndToEnd(const WorkloadDef &w, const Options &o, Ledger &ledger,
                std::vector<Metric> &out, std::vector<Metric> &extra)
{
    const SystemConfig cfg = workloadConfig(w, o.seed);
    const Clock::time_point deadline = deadlineIn(o.seconds);
    std::vector<SimRun> runs;
    std::vector<double> throughput; // sim ops per host second
    const char *what = "runs";

    if (isEnumerate(w)) {
        // Short seeded path runs give set-up time and the simulated
        // figures; the enumerations take the rest of the window.
        constexpr std::size_t kPathRuns = 60;
        while (runs.size() < kPathRuns) {
            runs.push_back(runSim(w, cfg, RunMode::Timed));
            recordRun(ledger, runs.back(), reference(runs), "path run");
        }
        constexpr std::size_t kMinEnumerations = 2;
        std::vector<double> states_per_s;
        std::uint64_t states = 0;
        std::size_t enumerations = 0;
        double last = 0.0;
        do {
            const Clock::time_point t0 = Clock::now();
            const EnumRun e = runEnumerate();
            last = secondsSince(t0);
            ++enumerations;
            std::string err = enumError(e.result);
            if (err.empty() && states != 0 && e.result.states != states)
                err = "enumerate: state count changed between runs";
            ledger.record(err);
            if (!err.empty())
                continue;
            states = e.result.states;
            throughput.push_back(
                static_cast<double>(e.result.transitions) / e.seconds);
            states_per_s.push_back(
                static_cast<double>(e.result.states) / e.seconds);
        } while (roomFor(deadline, last) ||
                 enumerations < kMinEnumerations);
        what = "enumerations";
        extra.push_back({"states_per_s", best(states_per_s), "states/s",
                         "best of " +
                             timingDetail(states_per_s, true, what) +
                             "; " + std::to_string(states) + " states"});
    } else {
        constexpr std::size_t kMinRuns = 3;
        double last = 0.0;
        do {
            const Clock::time_point t0 = Clock::now();
            runs.push_back(runSim(w, cfg, RunMode::Timed));
            recordRun(ledger, runs.back(), reference(runs), "timed run");
            last = secondsSince(t0);
        } while (roomFor(deadline, last) || runs.size() < kMinRuns);
        throughput = collect(runs, opsPerSecond);
    }
    const double rss = peakRssMiB();

    SimRun checked = runSim(w, cfg, RunMode::Checked);
    recordRun(ledger, checked, reference(runs), "checked run");

    const std::vector<double> setup =
        collect(runs, [](const SimRun &r) { return r.setupS(); });
    const SimRun *ref = reference(runs);
    const double cycles =
        ref ? static_cast<double>(ref->stats.completionTime()) : 0.0;
    const double energy = ref ? ref->stats.energy.total() : 0.0;

    out.push_back({"sim_ops_per_s", best(throughput), "ops/s",
                   "best of " + timingDetail(throughput, true, what) +
                       (isEnumerate(w) ? "; an op is one explored transition"
                                       : "")});
    out.push_back({"setup_s", median(setup), "s",
                   timingDetail(setup, false, "set-ups")});
    out.push_back({"peak_rss_mb", rss, "MiB", "ru_maxrss, whole process"});
    out.push_back({"sim_cycles", cycles, "cycles", "completionTime()"});
    out.push_back({"sim_energy_pj", energy, "pJ", "energy.total()"});
}

/** Host-time metrics of one step class, over the traced runs. */
void
addClass(std::vector<Metric> &out, const std::string &stem,
         const std::vector<const std::vector<std::uint32_t> *> &per_run)
{
    std::vector<double> p50, p99, self;
    for (const auto *samples : per_run) {
        p50.push_back(groupedQuantile(*samples, 0.50));
        p99.push_back(groupedQuantile(*samples, 0.99));
        double total = 0.0;
        for (const std::uint32_t ns : *samples)
            total += ns;
        self.push_back(total * 1e-9);
    }
    const std::string n = std::to_string(per_run.size()) + " traced runs";
    out.push_back({stem + "_ns.p50", median(p50), "ns", "median over " + n});
    out.push_back({stem + "_ns.p99", median(p99), "ns", "median over " + n});
    out.push_back({stem + ".count",
                   per_run.empty() ? 0.0
                                   : static_cast<double>(per_run[0]->size()),
                   "count", "steps per run"});
    out.push_back({stem + ".self_s", median(self), "s", "median over " + n});
}

void
addProbe(std::vector<Metric> &out, const std::string &stem,
         const std::string &unit, const std::vector<double> &v)
{
    const std::string n = "of " + std::to_string(v.size()) + " probes";
    out.push_back({stem + "_" + unit + ".p50", quantile(v, 0.50), unit, n});
    out.push_back({stem + "_" + unit + ".p99", quantile(v, 0.99), unit, n});
    out.push_back({stem + ".count", static_cast<double>(v.size()), "count",
                   "standalone probes"});
}

/** The simulated counts of one run: they repeat exactly per seed. */
void
addSimulated(std::vector<Metric> &out, const SystemStats &s,
             const SystemConfig &cfg)
{
    CacheStats l1i, l1d;
    for (const CoreStats &c : s.perCore) {
        l1i += c.l1i;
        l1d += c.l1d;
    }
    UtilizationHistogram removals = s.evictionUtil;
    removals += s.invalidationUtil;
    const ProtocolStats &p = s.protocol;
    const NetworkStats &n = s.network;
    const LatencyBreakdown lat = criticalPath(s);
    const EnergyBreakdown &e = s.energy;
    auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    const std::vector<Metric> m = {
        {"cache.l1d_miss_rate", s.l1dMissRate(), "fraction", ""},
        {"cache.l1i_miss_rate", l1i.missRate(), "fraction", ""},
        {"cache.l2_miss_rate", s.l2.missRate(), "fraction", ""},
        {"cache.l1d_evictions", u(l1d.evictions), "count", ""},
        {"core.promotions", u(p.promotions), "count", ""},
        {"core.demotions", u(p.demotions), "count", ""},
        {"core.low_util_frac", removals.fractionBelow(cfg.pct), "fraction",
         "L1 removals with utilization below PCT"},
        {"protocol.private_grants",
         u(p.privateReadGrants + p.privateWriteGrants), "count", ""},
        {"protocol.remote_words", u(p.remoteReads + p.remoteWrites), "count",
         ""},
        {"protocol.invalidations", u(p.invalidationsSent), "count", ""},
        {"protocol.broadcasts", u(p.broadcastInvals), "count", ""},
        {"protocol.sync_writebacks", u(p.syncWritebacks), "count", ""},
        {"protocol.l2_evictions", u(p.l2Evictions), "count", ""},
        {"net.unicasts", u(n.unicasts), "count", ""},
        {"net.flit_hops", u(n.flitHops), "count", ""},
        {"net.contention_cycles", u(n.contentionCycles), "cycles", ""},
        {"dram.fetches", u(p.dramFetches), "count", ""},
        {"dram.writebacks", u(p.dramWritebacks), "count", ""},
        {"lat.compute", u(lat.compute), "cycles", "slowest core"},
        {"lat.l1_to_l2", u(lat.l1ToL2), "cycles", "slowest core"},
        {"lat.l2_waiting", u(lat.l2Waiting), "cycles", "slowest core"},
        {"lat.l2_sharers", u(lat.l2Sharers), "cycles", "slowest core"},
        {"lat.off_chip", u(lat.offChip), "cycles", "slowest core"},
        {"lat.sync", u(lat.synchronization), "cycles", "slowest core"},
        {"energy.l1i", e.l1i, "pJ", ""},
        {"energy.l1d", e.l1d, "pJ", ""},
        {"energy.l2", e.l2, "pJ", ""},
        {"energy.directory", e.directory, "pJ", ""},
        {"energy.router", e.router, "pJ", ""},
        {"energy.link", e.link, "pJ", ""},
    };
    out.insert(out.end(), m.begin(), m.end());
}

/** The per-layer metrics (--trace 1). */
void
measurePerLayer(const WorkloadDef &w, const Options &o, Ledger &ledger,
                std::vector<Metric> &out)
{
    const SystemConfig cfg = workloadConfig(w, o.seed);
    // The enumeration and the standalone verify probes come out of
    // the budget first; traced/untraced run pairs take the rest.
    const Clock::time_point deadline = deadlineIn(o.seconds);
    constexpr double kProbeShare = 0.1;
    std::uint64_t states = 0, transitions = 0;
    if (isEnumerate(w)) {
        const EnumRun e = runEnumerate();
        ledger.record(enumError(e.result));
        states = e.result.states;
        transitions = e.result.transitions;
    }
    const VerifyProbe probe = probeVerify(o.seed, kProbeShare * o.seconds);
    ledger.record(probe.error);

    constexpr std::size_t kMinPairs = 2;
    std::vector<SimRun> plain, traced;
    double last = 0.0;
    do {
        const Clock::time_point t0 = Clock::now();
        plain.push_back(runSim(w, cfg, RunMode::Timed));
        recordRun(ledger, plain.back(), reference(plain), "timed run");
        traced.push_back(runSim(w, cfg, RunMode::Traced));
        recordRun(ledger, traced.back(), reference(plain), "traced run");
        last = secondsSince(t0);
    } while (roomFor(deadline, last) || traced.size() < kMinPairs);
    SimRun checked = runSim(w, cfg, RunMode::Checked);
    recordRun(ledger, checked, reference(plain), "checked run");

    std::vector<double> wl_build, sys_build, plain_s, traced_s, unattributed;
    std::vector<const SimRun *> ok_traced;
    for (const auto *runs : {&plain, &traced}) {
        for (const SimRun &r : *runs) {
            if (!r.error.empty())
                continue;
            wl_build.push_back(r.workloadBuildS);
            sys_build.push_back(r.systemBuildS);
            (runs == &plain ? plain_s : traced_s).push_back(r.runS);
            if (runs == &traced) {
                unattributed.push_back(r.unattributedFrac);
                ok_traced.push_back(&r);
            }
        }
    }
    out.push_back({"workload.build_s", median(wl_build), "s",
                   timingDetail(wl_build, false, "builds")});
    out.push_back({"system.build_s", median(sys_build), "s",
                   timingDetail(sys_build, false, "builds")});

    std::vector<const std::vector<std::uint32_t> *> per_run;
    for (const SimRun *r : ok_traced)
        per_run.push_back(&r->nextNs);
    addClass(out, "workload.next", per_run);
    for (std::size_t c = 0; c < kNumStepClasses; ++c) {
        per_run.clear();
        for (const SimRun *r : ok_traced)
            per_run.push_back(&r->steps.samples(static_cast<StepClass>(c)));
        addClass(out, stepClassName(static_cast<StepClass>(c)), per_run);
    }

    addProbe(out, "verify.rebuild", "us", probe.rebuildUs);
    addProbe(out, "verify.access", "ns", probe.accessNs);
    addProbe(out, "verify.check_all", "us", probe.checkAllUs);

    out.push_back({"trace.overhead", median(traced_s) / median(plain_s) - 1.0,
                   "ratio", "median traced over median untraced run, minus 1"});
    out.push_back({"trace.unattributed_frac", median(unattributed),
                   "fraction", "share of Multicore::run in no interval"});

    const SimRun *ref = reference(plain);
    addSimulated(out, ref ? ref->stats : SystemStats{}, cfg);
    out.push_back({"verify.states", static_cast<double>(states), "count",
                   "enumerate only"});
    out.push_back({"verify.transitions", static_cast<double>(transitions),
                   "count", "enumerate only"});
}

Json
metricsJson(const std::vector<Metric> &ms, bool with_detail)
{
    Json j = Json::object();
    for (const Metric &m : ms) {
        Json &e = j[m.name];
        e["value"] = m.value;
        e["unit"] = m.unit;
        if (with_detail && !m.detail.empty())
            e["detail"] = m.detail;
    }
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const WorkloadDef &w = *findWorkload(o.workload);
    const SystemConfig cfg = workloadConfig(w, o.seed);

    std::printf("# lacc_perf %s seed %" PRIu64 " seconds %g trace %d\n",
                w.name, o.seed, o.seconds, o.trace ? 1 : 0);
    if (isEnumerate(w))
        std::printf("# verify::enumerate %u cores, %u line, lacc x mesh\n",
                    enumOptions().cores, enumOptions().lines);
    else
        std::printf("# %s, %u cores, %ux%u mesh, op_scale %g, %s\n",
                    w.bench, w.cores, cfg.meshWidth, cfg.meshHeight(),
                    w.opScale, "serial engine, faults none");
    std::printf("# why: %s\n# model: %s\n", w.why, kModelNote);
    std::fflush(stdout);

    Ledger ledger;
    std::vector<Metric> metrics, extra;
    if (o.trace)
        measurePerLayer(w, o, ledger, metrics);
    else
        measureEndToEnd(w, o, ledger, metrics, extra);
    extra.push_back({"fail_frac", ledger.failFrac(), "fraction",
                     std::to_string(ledger.failed()) + " of " +
                         std::to_string(ledger.attempted()) +
                         " runs failed"});

    for (const auto *list : {&metrics, &extra})
        for (const Metric &m : *list)
            std::printf("%-34s %-14.10g %-9s %s\n", m.name.c_str(), m.value,
                        m.unit.c_str(), m.detail.c_str());
    for (const std::string &r : ledger.reasons())
        std::printf("# FAILED: %s\n", r.c_str());

    if (!o.doc.empty()) {
        Json doc = Json::object();
        doc["schema"] = "lacc-perf/1";
        Json &wl = doc["workload"];
        wl["name"] = w.name;
        wl["why"] = w.why;
        wl["definition"] =
            isEnumerate(w)
                ? std::string("verify::enumerate, 3 cores, 1 line, lacc x "
                              "mesh; simulated figures from a seeded "
                              "random path over its access alphabet")
                : std::string(w.bench) + ", " + std::to_string(w.cores) +
                      " cores, Table 1 defaults, serial engine, faults "
                      "none, functional oracle off";
        wl["op_scale"] = w.opScale;
        doc["seed"] = o.seed;
        doc["seconds"] = o.seconds;
        doc["trace"] = o.trace;
        Json &host = doc["host"];
        host["nproc"] = std::thread::hardware_concurrency();
        host["cpu"] = o.cpu;
        host["compiler"] = LACC_PERF_COMPILER;
        host["build_type"] = LACC_PERF_BUILD_TYPE;
        doc["commit"] = o.commit;
        doc["model"] = kModelNote;
        doc["attempted"] = ledger.attempted();
        doc["failed"] = ledger.failed();
        Json &fails = doc["failures"];
        fails = Json::array();
        for (const std::string &r : ledger.reasons())
            fails.push(r);
        doc["metrics"] = metricsJson(metrics, true);
        doc["extra"] = metricsJson(extra, true);
        std::ofstream f(o.doc);
        doc.write(f, 2);
        f << '\n';
        if (!f)
            std::fprintf(stderr, "lacc_perf: cannot write %s\n",
                         o.doc.c_str());
    }

    Json result = Json::object();
    result["correct"] = ledger.failed() == 0;
    result["attempted"] = ledger.attempted();
    result["failed"] = ledger.failed();
    result["metrics"] = metricsJson(metrics, false);
    std::cout << result.dump(0) << std::endl;
    return 0;
}
