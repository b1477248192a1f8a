/**
 * @file
 * The built-in experiment suite: every paper figure/table reproduction
 * and extension study, expressed as registry entries.
 *
 * Each entry's makeJobs() lays out the sweep grid in a canonical order
 * and its report() consumes the results with a cursor that walks the
 * exact same loop structure, so the text output is byte-identical to
 * the historical standalone bench binaries regardless of how many
 * worker threads executed the sweep.
 */

#include <cmath>
#include <cstdio>
#include <ostream>
#include <utility>
#include <vector>

#include "core/storage_model.hh"
#include "fault/plan.hh"
#include "harness/registry.hh"
#include "net/factory.hh"
#include "protocol/factory.hh"
#include "sim/log.hh"
#include "system/report.hh"
#include "workload/litmus.hh"
#include "workload/suite.hh"

namespace lacc::harness {

namespace {

/** Default config with a given PCT (Limited_3, ACKwise_4 as Table 1). */
SystemConfig
pctConfig(std::uint32_t pct)
{
    SystemConfig cfg = defaultConfig();
    cfg.pct = pct;
    // RAT levels span [PCT, RATmax]; keep the invariant for the very
    // high PCT points of the Fig 11 sweep.
    if (cfg.ratMax < pct)
        cfg.ratMax = pct;
    return cfg;
}

/** Baseline system: conventional directory protocol (PCT = 1). */
SystemConfig
baselineConfig()
{
    SystemConfig cfg = defaultConfig();
    cfg.classifierKind = ClassifierKind::AlwaysPrivate;
    cfg.pct = 1;
    return cfg;
}

/** A counter block's fields as doubles, in table order (Figs 8-9). */
template <typename S>
std::vector<double>
fieldValues(const S &s)
{
    std::vector<double> v;
    S::forEachField([&](const char *, auto m) {
        v.push_back(static_cast<double>(s.*m));
    });
    return v;
}

/**
 * Walks sweep results in generation order. Reports must call finish()
 * after their loops: together with next()'s over-run check it guards
 * against report loops drifting out of sync with makeJobs() in either
 * direction.
 */
class Cursor
{
  public:
    explicit Cursor(const std::vector<JobResult> &results)
        : results_(results)
    {}

    const RunResult &
    next()
    {
        if (pos_ >= results_.size())
            panic("experiment report consumed %zu results but sweep "
                  "has %zu",
                  pos_ + 1, results_.size());
        return results_[pos_++].result;
    }

    /** panic() unless every sweep result was consumed. */
    void
    finish() const
    {
        if (pos_ != results_.size())
            panic("experiment report consumed %zu of %zu sweep "
                  "results",
                  pos_, results_.size());
    }

  private:
    const std::vector<JobResult> &results_;
    std::size_t pos_ = 0;
};

// -------------------------------------------------------------------------
// Figures 1 & 2: utilization-at-removal histograms (baseline system).
// -------------------------------------------------------------------------

Experiment
utilizationExperiment(const std::string &name, bool inval)
{
    Experiment e;
    e.name = name;
    e.title = inval ? "Figure 1: Invalidations vs Utilization"
                    : "Figure 2: Evictions vs Utilization";
    e.subtitle =
        inval ? "Baseline directory protocol; % of invalidated lines"
                " per utilization bucket"
              : "Baseline directory protocol; % of evicted lines per"
                " utilization bucket";
    e.description =
        inval ? "Fig 1: invalidated-line utilization histogram"
              : "Fig 2: evicted-line utilization histogram";
    const std::string tag = inval ? "fig1 " : "fig2 ";
    e.makeJobs = [tag] {
        std::vector<Job> jobs;
        for (const auto &bench : benchmarkNames())
            jobs.push_back({bench, baselineConfig(), tag + bench});
        return jobs;
    };
    e.report = [inval](const ReportContext &ctx) {
        Cursor cur(ctx.results);
        Table t({"Benchmark", "1", "2-3", "4-5", "6-7", ">=8", "total",
                 "<4 (frac)"});
        for (const auto &bench : benchmarkNames()) {
            const auto &r = cur.next();
            const auto &h = inval ? r.stats.invalidationUtil
                                  : r.stats.evictionUtil;
            t.addRow({bench, fmtPct(h.bucketFraction(0)),
                      fmtPct(h.bucketFraction(1)),
                      fmtPct(h.bucketFraction(2)),
                      fmtPct(h.bucketFraction(3)),
                      fmtPct(h.bucketFraction(4)),
                      std::to_string(h.total()),
                      fmt(h.fractionBelow(4), 2)});
        }
        cur.finish();
        t.print(ctx.out);
        ctx.out << (inval
                        ? "\nShape check: low-utilization buckets"
                          " dominate for streaming/sharing-heavy"
                          " benchmarks\n"
                        : "\nShape check: streaming benchmarks evict"
                          " mostly low-utilization lines\n");
        Json fig = Json::object();
        fig["table"] = t.toJson();
        return fig;
    };
    return e;
}

// -------------------------------------------------------------------------
// Figures 8 & 9: component breakdowns vs PCT, normalized to PCT = 1.
// -------------------------------------------------------------------------

Experiment
breakdownExperiment(bool energy)
{
    Experiment e;
    e.name = energy ? "fig08" : "fig09";
    e.title = energy ? "Figure 8: Energy breakdown vs PCT (normalized"
                       " to PCT=1)"
                     : "Figure 9: Completion-time breakdown vs PCT"
                       " (normalized to PCT=1)";
    e.subtitle = energy ? "Components: L1-I / L1-D / L2 / Directory /"
                          " Router / Link"
                        : "Components: Compute / L1-L2 / L2-Waiting /"
                          " L2-Sharers / L2-OffChip / Sync";
    e.description = energy
                        ? "Fig 8: energy components, PCT 1..8"
                        : "Fig 9: completion-time components, PCT 1..8";
    const std::string tag = energy ? "fig8 " : "fig9 ";
    const std::vector<std::uint32_t> pcts = {1, 2, 3, 4, 5, 6, 7, 8};
    e.makeJobs = [tag, pcts] {
        std::vector<Job> jobs;
        for (const auto &bench : benchmarkNames())
            for (const auto pct : pcts)
                jobs.push_back({bench, pctConfig(pct),
                                tag + bench + " PCT=" +
                                    std::to_string(pct)});
        return jobs;
    };
    e.report = [energy, pcts](const ReportContext &ctx) {
        const auto &names = benchmarkNames();
        std::vector<std::vector<double>> avg(
            pcts.size(), std::vector<double>(6, 0.0));
        Cursor cur(ctx.results);
        Table t(energy
                    ? std::vector<std::string>{"Benchmark", "PCT",
                                               "L1-I", "L1-D", "L2",
                                               "Dir", "Router", "Link",
                                               "Total"}
                    : std::vector<std::string>{"Benchmark", "PCT",
                                               "Compute", "L1-L2",
                                               "L2Wait", "L2Sharers",
                                               "OffChip", "Sync",
                                               "Total"});
        for (const auto &bench : names) {
            double base_total = 0.0;
            for (std::size_t pi = 0; pi < pcts.size(); ++pi) {
                const auto &r = cur.next();
                const auto v = energy ? fieldValues(r.stats.energy)
                                      : fieldValues(r.stats.totalLatency());
                double total = 0.0;
                for (const double c : v)
                    total += c;
                if (pi == 0)
                    base_total = total > 0 ? total : 1.0;
                std::vector<std::string> row = {
                    bench, std::to_string(pcts[pi])};
                for (std::size_t i = 0; i < v.size(); ++i) {
                    const double n = v[i] / base_total;
                    avg[pi][i] +=
                        n / static_cast<double>(names.size());
                    row.push_back(fmt(n, 3));
                }
                row.push_back(fmt(total / base_total, 3));
                t.addRow(std::move(row));
            }
        }
        cur.finish();
        for (std::size_t pi = 0; pi < pcts.size(); ++pi) {
            std::vector<std::string> row = {"AVERAGE",
                                            std::to_string(pcts[pi])};
            double total = 0.0;
            for (const double c : avg[pi]) {
                row.push_back(fmt(c, 3));
                total += c;
            }
            row.push_back(fmt(total, 3));
            t.addRow(std::move(row));
        }
        t.print(ctx.out);
        ctx.out << (energy
                        ? "\nShape check (paper): average energy falls"
                          " ~25% by PCT 4; links dominate routers at"
                          " 11nm\n"
                        : "\nShape check (paper): average completion"
                          " time falls ~15% by PCT 4; waiting/sharers"
                          " components shrink\n");
        Json fig = Json::object();
        fig["table"] = t.toJson();
        Json averages = Json::array();
        for (std::size_t pi = 0; pi < pcts.size(); ++pi) {
            Json row = Json::object();
            row["pct"] = pcts[pi];
            Json comps = Json::array();
            for (const double c : avg[pi])
                comps.push(c);
            row["components"] = std::move(comps);
            averages.push(std::move(row));
        }
        fig["normalized_averages"] = std::move(averages);
        return fig;
    };
    return e;
}

// -------------------------------------------------------------------------
// Figure 10: miss-rate taxonomy vs PCT.
// -------------------------------------------------------------------------

Experiment
fig10Experiment()
{
    Experiment e;
    e.name = "fig10";
    e.title = "Figure 10: L1-D miss rate breakdown vs PCT";
    e.subtitle = "Miss rate % split into Cold/Capacity/Upgrade/"
                 "Sharing/Word";
    e.description = "Fig 10: L1-D miss taxonomy, PCT {1,2,3,4,6,8}";
    const std::vector<std::uint32_t> pcts = {1, 2, 3, 4, 6, 8};
    e.makeJobs = [pcts] {
        std::vector<Job> jobs;
        for (const auto &bench : benchmarkNames())
            for (const auto pct : pcts)
                jobs.push_back({bench, pctConfig(pct),
                                "fig10 " + bench + " PCT=" +
                                    std::to_string(pct)});
        return jobs;
    };
    e.report = [pcts](const ReportContext &ctx) {
        Cursor cur(ctx.results);
        Table t({"Benchmark", "PCT", "Miss%", "Cold%", "Cap%", "Upg%",
                 "Shar%", "Word%"});
        for (const auto &bench : benchmarkNames()) {
            for (const auto pct : pcts) {
                const auto &r = cur.next();
                const auto m = r.stats.totalMisses();
                const double acc =
                    static_cast<double>(r.stats.totalL1dAccesses());
                auto pc = [&](MissType ty) {
                    return fmt(100.0 * static_cast<double>(m.get(ty)) /
                                   (acc > 0 ? acc : 1),
                               2);
                };
                t.addRow({bench, std::to_string(pct),
                          fmt(100.0 * r.stats.l1dMissRate(), 2),
                          pc(MissType::Cold), pc(MissType::Capacity),
                          pc(MissType::Upgrade), pc(MissType::Sharing),
                          pc(MissType::Word)});
            }
        }
        cur.finish();
        t.print(ctx.out);
        Json fig = Json::object();
        fig["table"] = t.toJson();
        return fig;
    };
    return e;
}

// -------------------------------------------------------------------------
// Figure 11: geomean completion time & energy vs PCT.
// -------------------------------------------------------------------------

Experiment
fig11Experiment()
{
    Experiment e;
    e.name = "fig11";
    e.title = "Figure 11: Geomean Completion Time & Energy vs PCT";
    e.subtitle = "Normalized to PCT=1 across all 21 benchmarks";
    e.description =
        "Fig 11: geomean time/energy, PCT sweep to 20 (picks PCT=4)";
    const std::vector<std::uint32_t> pcts = {1, 2,  3,  4,  5,  6,  7,
                                             8, 10, 12, 14, 16, 18, 20};
    e.makeJobs = [pcts] {
        std::vector<Job> jobs;
        for (const auto pct : pcts)
            for (const auto &bench : benchmarkNames())
                jobs.push_back({bench, pctConfig(pct),
                                "fig11 PCT=" + std::to_string(pct) +
                                    " " + bench});
        return jobs;
    };
    e.report = [pcts](const ReportContext &ctx) {
        const auto &names = benchmarkNames();
        std::vector<double> base_time(names.size()),
            base_energy(names.size());
        Cursor cur(ctx.results);
        Table t({"PCT", "Completion Time (geomean)",
                 "Energy (geomean)"});
        Json points = Json::array();
        std::vector<std::string> best_row;
        double best_time = 1e300;
        for (std::size_t pi = 0; pi < pcts.size(); ++pi) {
            std::vector<double> times, energies;
            for (std::size_t bi = 0; bi < names.size(); ++bi) {
                const auto &r = cur.next();
                const double time =
                    static_cast<double>(r.completionTime);
                const double energy = r.energyTotal;
                if (pi == 0) {
                    base_time[bi] = time > 0 ? time : 1.0;
                    base_energy[bi] = energy > 0 ? energy : 1.0;
                }
                times.push_back(time / base_time[bi]);
                energies.push_back(energy / base_energy[bi]);
            }
            const double gm_t = geomean(times);
            const double gm_e = geomean(energies);
            t.addRow({std::to_string(pcts[pi]), fmt(gm_t, 3),
                      fmt(gm_e, 3)});
            Json pt = Json::object();
            pt["pct"] = pcts[pi];
            pt["geomean_time"] = gm_t;
            pt["geomean_energy"] = gm_e;
            points.push(std::move(pt));
            if (gm_t < best_time) {
                best_time = gm_t;
                best_row = {std::to_string(pcts[pi]), fmt(gm_t, 3),
                            fmt(gm_e, 3)};
            }
        }
        cur.finish();
        t.print(ctx.out);
        if (!best_row.empty()) {
            ctx.out << "\nBest completion time at PCT " << best_row[0]
                    << " (time " << best_row[1] << ", energy "
                    << best_row[2] << ")\n";
        }
        ctx.out << "Paper: PCT 4 gives ~0.85 completion time and ~0.75"
                   " energy\n";
        Json fig = Json::object();
        fig["table"] = t.toJson();
        fig["points"] = std::move(points);
        if (!best_row.empty())
            fig["best_pct"] =
                static_cast<std::uint64_t>(std::stoul(best_row[0]));
        return fig;
    };
    return e;
}

// -------------------------------------------------------------------------
// Figure 12: RAT level/threshold sensitivity.
// -------------------------------------------------------------------------

struct RatPoint
{
    const char *label;
    bool timestamp;
    std::uint32_t levels;
    std::uint32_t ratMax;
};

const std::vector<RatPoint> &
ratPoints()
{
    static const std::vector<RatPoint> points = {
        {"Timestamp", true, 0, 0},   {"L-1", false, 1, 16},
        {"L-2,T-8", false, 2, 8},    {"L-2,T-16", false, 2, 16},
        {"L-4,T-8", false, 4, 8},    {"L-4,T-16", false, 4, 16},
        {"L-8,T-16", false, 8, 16},
    };
    return points;
}

SystemConfig
ratConfig(const RatPoint &p)
{
    SystemConfig cfg = defaultConfig();
    cfg.classifierKind =
        p.timestamp ? ClassifierKind::Timestamp : ClassifierKind::Complete;
    if (!p.timestamp) {
        cfg.nRatLevels = p.levels;
        cfg.ratMax = p.ratMax;
    }
    return cfg;
}

Experiment
fig12Experiment()
{
    Experiment e;
    e.name = "fig12";
    e.title = "Figure 12: Remote Access Threshold sensitivity";
    e.subtitle = "Geomean completion time & energy normalized to the"
                 " Timestamp classifier (PCT=4, Complete tracking)";
    e.description =
        "Fig 12: RAT level/threshold schemes vs Timestamp reference";
    e.makeJobs = [] {
        std::vector<Job> jobs;
        for (const auto &p : ratPoints())
            for (const auto &bench : benchmarkNames())
                jobs.push_back({bench, ratConfig(p),
                                std::string("fig12 ") + p.label + " " +
                                    bench});
        return jobs;
    };
    e.report = [](const ReportContext &ctx) {
        const auto &names = benchmarkNames();
        const auto &points = ratPoints();
        std::vector<double> ref_time(names.size()),
            ref_energy(names.size());
        Cursor cur(ctx.results);
        Table t({"Scheme", "Completion Time", "Energy"});
        for (std::size_t pi = 0; pi < points.size(); ++pi) {
            std::vector<double> times, energies;
            for (std::size_t bi = 0; bi < names.size(); ++bi) {
                const auto &r = cur.next();
                const double time =
                    static_cast<double>(r.completionTime);
                const double energy = r.energyTotal;
                if (pi == 0) {
                    ref_time[bi] = time > 0 ? time : 1.0;
                    ref_energy[bi] = energy > 0 ? energy : 1.0;
                }
                times.push_back(time / ref_time[bi]);
                energies.push_back(energy / ref_energy[bi]);
            }
            t.addRow({points[pi].label, fmt(geomean(times), 3),
                      fmt(geomean(energies), 3)});
        }
        cur.finish();
        t.print(ctx.out);
        ctx.out << "\nPaper: L-1 costs ~9% energy; L-2,T-16 matches"
                   " the Timestamp scheme; extra levels add nothing\n";
        Json fig = Json::object();
        fig["table"] = t.toJson();
        return fig;
    };
    return e;
}

// -------------------------------------------------------------------------
// Figure 13: Limited_k classifier accuracy.
// -------------------------------------------------------------------------

Experiment
fig13Experiment()
{
    Experiment e;
    e.name = "fig13";
    e.title = "Figure 13: Limited_k classifier accuracy";
    e.subtitle = "Completion time & energy normalized to the Complete"
                 " classifier (PCT=4)";
    e.description = "Fig 13: Limited_k (k in {1,3,5,7}) vs Complete";
    const std::vector<std::uint32_t> ks = {1, 3, 5, 7};
    e.makeJobs = [ks] {
        std::vector<Job> jobs;
        SystemConfig complete = defaultConfig();
        complete.classifierKind = ClassifierKind::Complete;
        for (const auto &bench : benchmarkNames())
            jobs.push_back(
                {bench, complete, "fig13 Complete " + bench});
        for (const auto k : ks) {
            SystemConfig cfg = defaultConfig();
            cfg.classifierKind = ClassifierKind::Limited;
            cfg.classifierK = k;
            for (const auto &bench : benchmarkNames())
                jobs.push_back({bench, cfg,
                                "fig13 k=" + std::to_string(k) + " " +
                                    bench});
        }
        return jobs;
    };
    e.report = [ks](const ReportContext &ctx) {
        const auto &names = benchmarkNames();
        Cursor cur(ctx.results);
        std::vector<double> ref_time(names.size()),
            ref_energy(names.size());
        for (std::size_t bi = 0; bi < names.size(); ++bi) {
            const auto &r = cur.next();
            ref_time[bi] = r.completionTime > 0
                               ? static_cast<double>(r.completionTime)
                               : 1.0;
            ref_energy[bi] =
                r.energyTotal > 0 ? r.energyTotal : 1.0;
        }
        Table t({"Benchmark", "k", "Completion Time", "Energy"});
        std::vector<std::vector<double>> gm_t(ks.size()),
            gm_e(ks.size());
        for (std::size_t ki = 0; ki < ks.size(); ++ki) {
            for (std::size_t bi = 0; bi < names.size(); ++bi) {
                const auto &r = cur.next();
                const double nt =
                    static_cast<double>(r.completionTime) /
                    ref_time[bi];
                const double ne = r.energyTotal / ref_energy[bi];
                gm_t[ki].push_back(nt);
                gm_e[ki].push_back(ne);
                t.addRow({names[bi], std::to_string(ks[ki]),
                          fmt(nt, 3), fmt(ne, 3)});
            }
        }
        cur.finish();
        for (std::size_t bi = 0; bi < names.size(); ++bi)
            t.addRow({names[bi], "64(Complete)", "1.000", "1.000"});
        t.print(ctx.out);

        ctx.out << "\nGeomeans vs Complete:\n";
        Table g({"k", "Completion Time", "Energy"});
        for (std::size_t ki = 0; ki < ks.size(); ++ki)
            g.addRow({std::to_string(ks[ki]),
                      fmt(geomean(gm_t[ki]), 3),
                      fmt(geomean(gm_e[ki]), 3)});
        g.addRow({"64", "1.000", "1.000"});
        g.print(ctx.out);
        ctx.out << "\nPaper: Limited_3 within ~3% of Complete;"
                   " Limited_1 suffers on radix/bodytrack\n";
        Json fig = Json::object();
        fig["table"] = t.toJson();
        fig["geomeans"] = g.toJson();
        return fig;
    };
    return e;
}

// -------------------------------------------------------------------------
// Figure 14: one-way vs two-way mode transitions.
// -------------------------------------------------------------------------

Experiment
fig14Experiment()
{
    Experiment e;
    e.name = "fig14";
    e.title = "Figure 14: Adapt1-way / Adapt2-way ratios";
    e.subtitle = "PCT=4; >1 means one-way transitions are worse";
    e.description =
        "Fig 14: cost of removing remote->private re-promotion";
    e.makeJobs = [] {
        std::vector<Job> jobs;
        for (const auto &bench : benchmarkNames()) {
            SystemConfig cfg1 = defaultConfig();
            cfg1.protocolKind = ProtocolKind::AdaptOneWay;
            jobs.push_back(
                {bench, defaultConfig(), "fig14 2way " + bench});
            jobs.push_back({bench, cfg1, "fig14 1way " + bench});
        }
        return jobs;
    };
    e.report = [](const ReportContext &ctx) {
        Cursor cur(ctx.results);
        Table t({"Benchmark", "Completion Time ratio", "Energy ratio"});
        std::vector<double> rt, re;
        for (const auto &bench : benchmarkNames()) {
            const auto &r2 = cur.next();
            const auto &r1 = cur.next();
            const double time_ratio =
                static_cast<double>(r1.completionTime) /
                static_cast<double>(
                    r2.completionTime > 0 ? r2.completionTime : 1);
            const double energy_ratio =
                r1.energyTotal /
                (r2.energyTotal > 0 ? r2.energyTotal : 1.0);
            rt.push_back(time_ratio);
            re.push_back(energy_ratio);
            t.addRow({bench, fmt(time_ratio, 3),
                      fmt(energy_ratio, 3)});
        }
        cur.finish();
        t.addRow({"GEOMEAN", fmt(geomean(rt), 3),
                  fmt(geomean(re), 3)});
        t.print(ctx.out);
        ctx.out << "\nPaper: average ~1.34x completion time / ~1.13x"
                   " energy; bodytrack ~3.3x, dijkstra-ss ~2.3x\n";
        Json fig = Json::object();
        fig["table"] = t.toJson();
        fig["geomean_time_ratio"] = geomean(rt);
        fig["geomean_energy_ratio"] = geomean(re);
        return fig;
    };
    return e;
}

// -------------------------------------------------------------------------
// Table 1: architectural parameters + storage arithmetic (no sweep).
// -------------------------------------------------------------------------

Experiment
table1Experiment()
{
    Experiment e;
    e.name = "table1";
    e.title = "Table 1: Architectural parameters";
    e.subtitle = "Default configuration used by every experiment";
    e.description =
        "Table 1: default parameters + Section 3.6 storage overheads";
    e.makeJobs = [] { return std::vector<Job>{}; };
    e.report = [](const ReportContext &ctx) {
        const SystemConfig cfg = defaultConfig();
        Table t({"Parameter", "Value"});
        t.addRow({"Number of cores",
                  std::to_string(cfg.numCores) + " @ 1 GHz"});
        t.addRow({"Compute pipeline", "In-order, single-issue"});
        t.addRow({"Physical address length", "48 bits"});
        t.addRow({"L1-I cache per core",
                  std::to_string(cfg.l1iSizeKB) + " KB, " +
                      std::to_string(cfg.l1iAssoc) + "-way, " +
                      std::to_string(cfg.l1Latency) + " cycle"});
        t.addRow({"L1-D cache per core",
                  std::to_string(cfg.l1dSizeKB) + " KB, " +
                      std::to_string(cfg.l1dAssoc) + "-way, " +
                      std::to_string(cfg.l1Latency) + " cycle"});
        t.addRow({"L2 cache per core",
                  std::to_string(cfg.l2SizeKB) + " KB, " +
                      std::to_string(cfg.l2Assoc) + "-way, " +
                      std::to_string(cfg.l2Latency) +
                      " cycle, inclusive, R-NUCA"});
        t.addRow({"Cache line size",
                  std::to_string(cfg.lineSize) + " bytes"});
        t.addRow({"Directory protocol",
                  std::string("Invalidation-based MESI, ACKwise") +
                      std::to_string(cfg.ackwisePointers)});
        t.addRow({"Memory controllers",
                  std::to_string(cfg.numMemControllers)});
        t.addRow({"DRAM bandwidth",
                  fmt(cfg.dramBandwidthGBps, 1) +
                      " GBps per controller"});
        t.addRow({"DRAM latency",
                  std::to_string(cfg.dramLatency) + " ns"});
        t.addRow({"Network", "Electrical 2-D mesh, XY routing"});
        t.addRow({"Hop latency",
                  std::to_string(cfg.hopLatency) +
                      " cycles (1 router, 1 link)"});
        t.addRow({"Flit width",
                  std::to_string(cfg.flitWidthBits) + " bits"});
        t.addRow({"Header", std::to_string(cfg.headerFlits) + " flit"});
        t.addRow({"Word length",
                  std::to_string(cfg.wordFlits) + " flit"});
        t.addRow({"Cache line length",
                  std::to_string(cfg.lineFlits) + " flits"});
        t.addRow({"PCT", std::to_string(cfg.pct)});
        t.addRow({"RATmax", std::to_string(cfg.ratMax)});
        t.addRow({"nRATlevels", std::to_string(cfg.nRatLevels)});
        t.addRow({"Classifier",
                  std::string("Limited") +
                      std::to_string(cfg.classifierK)});
        t.print(ctx.out);

        ctx.out << "\nSection 3.6: storage overhead per core\n\n";
        StorageModel m(cfg);
        Table s({"Structure", "Bits/entry", "KB/core", "Paper"});
        s.addRow({"L1 utilization bits",
                  std::to_string(m.l1UtilBitsPerLine()) + " /line",
                  fmt(m.l1OverheadKB(), 4), "0.19 KB"});
        s.addRow({"Limited3 classifier",
                  std::to_string(m.limitedBitsPerEntry()),
                  fmt(m.limitedOverheadKB(), 1), "18 KB"});
        s.addRow({"Complete classifier",
                  std::to_string(m.completeBitsPerEntry()),
                  fmt(m.completeOverheadKB(), 1), "192 KB"});
        s.addRow({"ACKwise4 pointers",
                  std::to_string(m.ackwiseBitsPerEntry()),
                  fmt(m.ackwiseKB(), 1), "12 KB"});
        s.addRow({"Full-map directory",
                  std::to_string(m.fullMapBitsPerEntry()),
                  fmt(m.fullMapKB(), 1), "32 KB"});
        s.print(ctx.out);

        ctx.out << "\nOverhead vs baseline ACKwise4 (incl. caches):\n"
                << "  Limited3 classifier: "
                << fmt(m.overheadPercentVsAckwise(false), 2)
                << "%   (paper: 5.7%)\n"
                << "  Complete classifier: "
                << fmt(m.overheadPercentVsAckwise(true), 2)
                << "%   (paper: 60%)\n"
                << "  Limited3 + ACKwise4 = "
                << fmt(m.limitedOverheadKB() + m.ackwiseKB(), 1)
                << " KB < full-map " << fmt(m.fullMapKB(), 1)
                << " KB: "
                << (m.limitedOverheadKB() + m.ackwiseKB() <
                            m.fullMapKB()
                        ? "HOLDS"
                        : "VIOLATED")
                << "\n";
        Json fig = Json::object();
        fig["table"] = t.toJson();
        fig["storage"] = s.toJson();
        fig["config"] = toJson(cfg);
        return fig;
    };
    return e;
}

// -------------------------------------------------------------------------
// Table 2: benchmark problem sizes (no sweep).
// -------------------------------------------------------------------------

std::string
mixSummary(const SyntheticSpec &s)
{
    std::string out;
    auto add = [&](const char *n, double w) {
        if (w <= 0)
            return;
        if (!out.empty())
            out += " ";
        char buf[48];
        std::snprintf(buf, sizeof buf, "%s:%.2f", n, w);
        out += buf;
    };
    add("privHot", s.mix.privateHot);
    add("privStream", s.mix.privateStream);
    add("shRO", s.mix.sharedRO);
    add("shPC", s.mix.sharedPC);
    add("shStream", s.mix.sharedStream);
    add("lock", s.mix.lockRMW);
    return out;
}

std::string
kb(std::uint64_t bytes)
{
    return std::to_string(bytes >> 10) + "KB";
}

Experiment
table2Experiment()
{
    Experiment e;
    e.name = "table2";
    e.title = "Table 2: Problem sizes for the parallel benchmarks";
    e.subtitle = "Paper size -> synthetic substitution (scaled for"
                 " minute-long sweeps; LACC_SCALE rescales)";
    e.description =
        "Table 2: paper problem sizes -> synthetic archetype mixes";
    e.makeJobs = [] { return std::vector<Job>{}; };
    e.report = [](const ReportContext &ctx) {
        const SystemConfig cfg = defaultConfig();
        const double scale = ctx.opScale;
        Table t({"Benchmark", "Paper problem size", "Archetype mix",
                 "Private WS", "Shared WS", "Ops/core"});
        for (const auto &bench : benchmarkNames()) {
            const auto s = benchmarkSpec(bench, cfg, scale);
            const auto priv = s.privateHotBytes + s.privateStreamBytes;
            const auto shared = s.sharedROBytes + s.sharedPCBytes +
                                s.sharedStreamBytes;
            t.addRow({bench, benchmarkProblemSize(bench),
                      mixSummary(s), kb(priv), kb(shared),
                      std::to_string(static_cast<std::uint64_t>(
                                         s.opsPerPhase) *
                                     s.numPhases)});
        }
        t.print(ctx.out);
        Json fig = Json::object();
        fig["table"] = t.toJson();
        return fig;
    };
    return e;
}

// -------------------------------------------------------------------------
// Ablations: learning short-cut & R-NUCA placement.
// -------------------------------------------------------------------------

std::vector<std::pair<std::string, SystemConfig>>
ablationStudy1()
{
    SystemConfig base = defaultConfig();
    base.classifierKind = ClassifierKind::Complete;
    SystemConfig shortcut = base;
    shortcut.completeLearningShortcut = true;
    return {{"Complete (paper)", base},
            {"Complete + learning short-cut", shortcut}};
}

std::vector<std::pair<std::string, SystemConfig>>
ablationStudy2()
{
    SystemConfig rnuca = defaultConfig();
    SystemConfig snuca = defaultConfig();
    snuca.rnucaEnabled = false;
    return {{"R-NUCA", rnuca}, {"Static-NUCA (hash only)", snuca}};
}

/** Shared normalized-geomean study body (ablation tables). */
Json
reportStudy(const ReportContext &ctx, Cursor &cur,
            const std::string &title,
            const std::vector<std::pair<std::string, SystemConfig>> &pts)
{
    const auto &names = benchmarkNames();
    std::vector<double> ref_t(names.size()), ref_e(names.size());
    Table t({"Variant", "Completion Time", "Energy"});
    for (std::size_t pi = 0; pi < pts.size(); ++pi) {
        std::vector<double> times, energies;
        for (std::size_t bi = 0; bi < names.size(); ++bi) {
            const auto &r = cur.next();
            const double time = static_cast<double>(r.completionTime);
            const double energy = r.energyTotal;
            if (pi == 0) {
                ref_t[bi] = time > 0 ? time : 1.0;
                ref_e[bi] = energy > 0 ? energy : 1.0;
            }
            times.push_back(time / ref_t[bi]);
            energies.push_back(energy / ref_e[bi]);
        }
        t.addRow({pts[pi].first, fmt(geomean(times), 3),
                  fmt(geomean(energies), 3)});
    }
    ctx.out << "\n" << title << "\n";
    t.print(ctx.out);
    return t.toJson();
}

Experiment
ablationExperiment()
{
    Experiment e;
    e.name = "ablation";
    e.title = "Ablations: learning short-cut & R-NUCA placement";
    e.subtitle = "Geomeans over the 21-benchmark suite, normalized to"
                 " the first row of each table";
    e.description =
        "Ablations: Complete-classifier seeding & R-NUCA vs S-NUCA";
    e.makeJobs = [] {
        std::vector<Job> jobs;
        for (const auto &study : {ablationStudy1(), ablationStudy2()})
            for (const auto &pt : study)
                for (const auto &bench : benchmarkNames())
                    jobs.push_back({bench, pt.second,
                                    "ablation " + pt.first + " " +
                                        bench});
        return jobs;
    };
    e.report = [](const ReportContext &ctx) {
        Cursor cur(ctx.results);
        Json fig = Json::object();
        fig["learning_shortcut"] = reportStudy(
            ctx, cur,
            "Complete classifier: per-sharer learning vs"
            " majority-vote seeding (§5.3 extension)",
            ablationStudy1());
        fig["placement"] = reportStudy(
            ctx, cur,
            "Placement: R-NUCA (paper baseline) vs static-NUCA",
            ablationStudy2());
        cur.finish();
        ctx.out << "\nExpected: the short-cut helps sharing-heavy"
                   " benchmarks slightly; static-NUCA pays"
                   " remote-slice latency for private data\n";
        return fig;
    };
    return e;
}

// -------------------------------------------------------------------------
// ACKwise_4 vs full-map baseline validation.
// -------------------------------------------------------------------------

Experiment
ackwiseExperiment()
{
    Experiment e;
    e.name = "ackwise";
    e.title = "ACKwise4 vs Full-Map directory (baseline protocol)";
    e.subtitle =
        "Ratios ACKwise/FullMap; paper: within 1% on average";
    e.description =
        "Baseline validation: ACKwise4 within ~1% of full-map";
    e.makeJobs = [] {
        std::vector<Job> jobs;
        for (const auto &bench : benchmarkNames()) {
            // The two directory protocols, selected by factory name
            // (identical configs to setting directoryKind by hand).
            SystemConfig fm = baselineConfig();
            applyProtocolName(fm, "fullmap");
            jobs.push_back(
                {bench, baselineConfig(), "ackwise ack " + bench});
            jobs.push_back({bench, fm, "ackwise fullmap " + bench});
        }
        return jobs;
    };
    e.report = [](const ReportContext &ctx) {
        Cursor cur(ctx.results);
        Table t({"Benchmark", "Completion Time ratio", "Energy ratio",
                 "Broadcasts"});
        std::vector<double> rt, re;
        for (const auto &bench : benchmarkNames()) {
            const auto &ra = cur.next();
            const auto &rf = cur.next();
            const double time_ratio =
                static_cast<double>(ra.completionTime) /
                static_cast<double>(
                    rf.completionTime > 0 ? rf.completionTime : 1);
            const double energy_ratio =
                ra.energyTotal /
                (rf.energyTotal > 0 ? rf.energyTotal : 1.0);
            rt.push_back(time_ratio);
            re.push_back(energy_ratio);
            t.addRow({bench, fmt(time_ratio, 4), fmt(energy_ratio, 4),
                      std::to_string(ra.stats.protocol.broadcastInvals)});
        }
        cur.finish();
        const double gm_t = geomean(rt);
        const double gm_e = geomean(re);
        t.addRow({"GEOMEAN", fmt(gm_t, 4), fmt(gm_e, 4), "-"});
        t.print(ctx.out);
        ctx.out << "\nDeviation from full-map: completion "
                << fmt(std::abs(gm_t - 1.0) * 100, 2) << "%, energy "
                << fmt(std::abs(gm_e - 1.0) * 100, 2)
                << "% (paper: within 1%)\n";
        Json fig = Json::object();
        fig["table"] = t.toJson();
        fig["geomean_time_ratio"] = gm_t;
        fig["geomean_energy_ratio"] = gm_e;
        return fig;
    };
    return e;
}

// -------------------------------------------------------------------------
// Scaling study: benefit vs core count.
// -------------------------------------------------------------------------

SystemConfig
sizedConfig(std::uint32_t cores, std::uint32_t width, bool adaptive)
{
    SystemConfig cfg = defaultConfig();
    cfg.numCores = cores;
    cfg.meshWidth = width;
    cfg.numMemControllers = 8;
    if (!adaptive) {
        cfg.classifierKind = ClassifierKind::AlwaysPrivate;
        cfg.pct = 1;
    }
    return cfg;
}

struct ScaleSize
{
    std::uint32_t cores, width;
};

const std::vector<ScaleSize> &
scaleSizes()
{
    // The 256-core point is affordable serially: streamcluster takes
    // ~2.5 s per run at scale 1 (4-vCPU Xeon VM, gcc 12, -O3).
    static const std::vector<ScaleSize> sizes = {
        {16, 4}, {32, 8}, {64, 8}, {256, 16}};
    return sizes;
}

Experiment
scalingExperiment()
{
    Experiment e;
    e.name = "scaling";
    e.title = "Scaling: adaptive (PCT=4) vs baseline by core count";
    e.subtitle = "Geomean over the suite; lower is better for the"
                 " adaptive/baseline ratios";
    e.description =
        "Extension: protocol benefit at 16/32/64/256 cores";
    e.makeJobs = [] {
        std::vector<Job> jobs;
        for (const auto &sz : scaleSizes()) {
            const std::string tag =
                "scaling " + std::to_string(sz.cores) + "c ";
            for (const auto &bench : benchmarkNames()) {
                jobs.push_back({bench,
                                sizedConfig(sz.cores, sz.width, false),
                                tag + "base " + bench});
                jobs.push_back({bench,
                                sizedConfig(sz.cores, sz.width, true),
                                tag + "adapt " + bench});
            }
        }
        return jobs;
    };
    e.report = [](const ReportContext &ctx) {
        const auto &names = benchmarkNames();
        Cursor cur(ctx.results);
        Table t({"Cores", "Completion ratio", "Energy ratio",
                 "Baseline flit-hops/access",
                 "Adaptive flit-hops/access"});
        for (const auto &sz : scaleSizes()) {
            std::vector<double> times, energies;
            double base_hops = 0, adapt_hops = 0;
            for (std::size_t bi = 0; bi < names.size(); ++bi) {
                const auto &rb = cur.next();
                const auto &ra = cur.next();
                times.push_back(
                    static_cast<double>(ra.completionTime) /
                    static_cast<double>(
                        rb.completionTime > 0 ? rb.completionTime
                                              : 1));
                energies.push_back(
                    ra.energyTotal /
                    (rb.energyTotal > 0 ? rb.energyTotal : 1.0));
                base_hops +=
                    static_cast<double>(rb.stats.network.flitHops) /
                    static_cast<double>(rb.stats.totalL1dAccesses() +
                                        1);
                adapt_hops +=
                    static_cast<double>(ra.stats.network.flitHops) /
                    static_cast<double>(ra.stats.totalL1dAccesses() +
                                        1);
            }
            t.addRow(
                {std::to_string(sz.cores), fmt(geomean(times), 3),
                 fmt(geomean(energies), 3),
                 fmt(base_hops / static_cast<double>(names.size()), 2),
                 fmt(adapt_hops / static_cast<double>(names.size()),
                     2)});
        }
        cur.finish();
        t.print(ctx.out);
        ctx.out << "\nExpected: the adaptive/baseline ratio falls"
                   " (bigger win) as the machine grows\n";
        Json fig = Json::object();
        fig["table"] = t.toJson();
        return fig;
    };
    return e;
}

// -------------------------------------------------------------------------
// Topology sensitivity: how much of LACC's win depends on cheap
// broadcast?
// -------------------------------------------------------------------------

/** One directory variant of the topology sweep. */
struct NetVariant
{
    const char *label;
    DirectoryKind dir;
    std::uint32_t pointers; //!< ACKwise_p; ignored for FullMap
};

const std::vector<NetVariant> &
netVariants()
{
    // "full" sharer tracking == the full-map directory: it never
    // broadcasts, so it anchors the broadcast-cost comparison.
    static const std::vector<NetVariant> variants = {
        {"ACKwise2", DirectoryKind::Ackwise, 2},
        {"ACKwise4", DirectoryKind::Ackwise, 4},
        {"FullMap", DirectoryKind::FullMap, 0},
    };
    return variants;
}

SystemConfig
netVariantConfig(const NetVariant &v, const std::string &network)
{
    SystemConfig cfg = defaultConfig();
    cfg.directoryKind = v.dir;
    if (v.dir == DirectoryKind::Ackwise)
        cfg.ackwisePointers = v.pointers;
    applyNetworkName(cfg, network);
    return cfg;
}

Experiment
networkExperiment()
{
    Experiment e;
    e.name = "network";
    e.title = "Topology sensitivity: directory variants x interconnect"
              " fabrics";
    e.subtitle = "{ACKwise2, ACKwise4, FullMap} x {mesh, torus, ring,"
                 " xbar}; PCT=4 adaptive protocol on every fabric";
    e.description =
        "Extension: LACC's broadcast dependence across mesh/torus/"
        "ring/xbar";
    e.makeJobs = [] {
        std::vector<Job> jobs;
        for (const auto &v : netVariants())
            for (const auto &net : networkNames())
                for (const auto &bench : benchmarkNames())
                    jobs.push_back(
                        {bench, netVariantConfig(v, net),
                         "network " + std::string(v.label) + " " + net +
                             " " + bench});
        return jobs;
    };
    e.report = [](const ReportContext &ctx) {
        const auto &variants = netVariants();
        const auto &nets = networkNames();
        const auto &names = benchmarkNames();

        // res[variant][network][bench], in generation order.
        Cursor cur(ctx.results);
        std::vector<std::vector<std::vector<const RunResult *>>> res(
            variants.size(),
            std::vector<std::vector<const RunResult *>>(
                nets.size(),
                std::vector<const RunResult *>(names.size(), nullptr)));
        for (std::size_t vi = 0; vi < variants.size(); ++vi)
            for (std::size_t ni = 0; ni < nets.size(); ++ni)
                for (std::size_t bi = 0; bi < names.size(); ++bi)
                    res[vi][ni][bi] = &cur.next();
        cur.finish();

        // Table 1: each variant normalized to ITS OWN mesh run, so a
        // row reads "what switching the fabric costs this directory".
        // networkNames() leads with "mesh" (the factory's default).
        Table t({"Variant", "Network", "Completion Time", "Energy",
                 "Broadcasts", "Flit-hops vs mesh"});
        Json points = Json::array();
        for (std::size_t vi = 0; vi < variants.size(); ++vi) {
            std::vector<double> base_t(names.size()),
                base_e(names.size());
            double base_hops = 0.0;
            for (std::size_t ni = 0; ni < nets.size(); ++ni) {
                std::vector<double> times, energies;
                std::uint64_t broadcasts = 0;
                double hops = 0.0;
                for (std::size_t bi = 0; bi < names.size(); ++bi) {
                    const RunResult &r = *res[vi][ni][bi];
                    const double time =
                        static_cast<double>(r.completionTime);
                    const double energy = r.energyTotal;
                    if (ni == 0) {
                        base_t[bi] = time > 0 ? time : 1.0;
                        base_e[bi] = energy > 0 ? energy : 1.0;
                    }
                    times.push_back(time / base_t[bi]);
                    energies.push_back(energy / base_e[bi]);
                    broadcasts += r.stats.network.broadcasts;
                    hops +=
                        static_cast<double>(r.stats.network.flitHops);
                }
                if (ni == 0)
                    base_hops = hops > 0 ? hops : 1.0;
                const double gm_t = geomean(times);
                const double gm_e = geomean(energies);
                t.addRow({variants[vi].label, nets[ni], fmt(gm_t, 3),
                          fmt(gm_e, 3), std::to_string(broadcasts),
                          fmt(hops / base_hops, 3)});
                Json pt = Json::object();
                pt["variant"] = variants[vi].label;
                pt["network"] = nets[ni];
                pt["geomean_time_vs_mesh"] = gm_t;
                pt["geomean_energy_vs_mesh"] = gm_e;
                pt["broadcasts"] = broadcasts;
                pt["flit_hops_vs_mesh"] = hops / base_hops;
                points.push(std::move(pt));
            }
        }
        t.print(ctx.out);

        // Table 2: the limited directories against full-map on the
        // SAME fabric — the quantitative answer to "how much of the
        // ACKwise design depends on cheap broadcast". FullMap is the
        // last variant by construction.
        const std::size_t fm = variants.size() - 1;
        ctx.out << "\nACKwise_p / FullMap on the same fabric (>1 means"
                   " the limited directory loses):\n";
        Table g({"Network", "ACKwise2 time", "ACKwise2 energy",
                 "ACKwise4 time", "ACKwise4 energy"});
        Json ratios = Json::array();
        for (std::size_t ni = 0; ni < nets.size(); ++ni) {
            std::vector<std::string> row = {nets[ni]};
            Json jr = Json::object();
            jr["network"] = nets[ni];
            for (std::size_t vi = 0; vi + 1 < variants.size(); ++vi) {
                std::vector<double> rt, re;
                for (std::size_t bi = 0; bi < names.size(); ++bi) {
                    const RunResult &ra = *res[vi][ni][bi];
                    const RunResult &rf = *res[fm][ni][bi];
                    rt.push_back(
                        static_cast<double>(ra.completionTime) /
                        static_cast<double>(rf.completionTime > 0
                                                ? rf.completionTime
                                                : 1));
                    re.push_back(ra.energyTotal /
                                 (rf.energyTotal > 0 ? rf.energyTotal
                                                     : 1.0));
                }
                const double gm_t = geomean(rt);
                const double gm_e = geomean(re);
                row.push_back(fmt(gm_t, 4));
                row.push_back(fmt(gm_e, 4));
                jr[std::string(variants[vi].label) + "_time_ratio"] =
                    gm_t;
                jr[std::string(variants[vi].label) + "_energy_ratio"] =
                    gm_e;
            }
            g.addRow(std::move(row));
            ratios.push(std::move(jr));
        }
        g.print(ctx.out);
        ctx.out << "\nShape check: ACKwise tracks full-map closely on"
                   " broadcast-capable fabrics (mesh/torus/ring) and"
                   " drifts on the crossbar, where every overflow"
                   " broadcast pays N-1 serialized unicasts; fewer"
                   " pointers (ACKwise2) amplify the gap\n";
        Json fig = Json::object();
        fig["table"] = t.toJson();
        fig["vs_fullmap"] = g.toJson();
        fig["points"] = std::move(points);
        fig["ratios"] = std::move(ratios);
        return fig;
    };
    return e;
}

// -------------------------------------------------------------------------
// Litmus sweep: the named coherence archetypes under every protocol.
// -------------------------------------------------------------------------

Experiment
litmusExperiment()
{
    Experiment e;
    e.name = "litmus";
    e.title = "Litmus archetypes x protocols (functional check on)";
    e.subtitle = "Producer-consumer, false sharing, TAS lock; every"
                 " read validated against the reference memory";
    e.description =
        "coherence litmus sweep: archetypes x protocols, zero-error"
        " check";
    e.makeJobs = [] {
        std::vector<Job> jobs;
        for (const auto &proto : protocolNames())
            for (const auto &name : litmusNames()) {
                SystemConfig cfg = defaultConfig();
                applyProtocolName(cfg, proto);
                jobs.push_back({name, cfg, proto + " " + name});
            }
        return jobs;
    };
    e.report = [](const ReportContext &ctx) {
        Cursor cur(ctx.results);
        Table t({"Protocol", "Litmus", "Cycles", "Energy (uJ)",
                 "Func errors"});
        std::uint64_t errors = 0;
        for (const auto &proto : protocolNames())
            for (const auto &name : litmusNames()) {
                const auto &r = cur.next();
                errors += r.functionalErrors;
                t.addRow({proto, name,
                          std::to_string(r.completionTime),
                          fmt(r.energyTotal * 1e-6, 3),
                          std::to_string(r.functionalErrors)});
            }
        cur.finish();
        t.print(ctx.out);
        ctx.out << (errors == 0
                        ? "\nAll litmus runs functionally clean\n"
                        : "\nFUNCTIONAL ERRORS DETECTED\n");
        Json fig = Json::object();
        fig["table"] = t.toJson();
        fig["functionalErrors"] = errors;
        return fig;
    };
    return e;
}

// -------------------------------------------------------------------------
// Resilience sweep: fault plans x rates x protocols x fabrics, every
// run replayed through the invariant checker and the reference memory.
// -------------------------------------------------------------------------

/** Benchmarks the resilience sweep exercises: all litmus archetypes
 *  (functional checks are always on for those) plus the two leading
 *  synthetic benchmarks (which runBenchmark runs with functional
 *  checks forced on whenever faults are active). */
const std::vector<std::string> &
faultBenches()
{
    static const std::vector<std::string> benches = [] {
        std::vector<std::string> b = litmusNames();
        const auto &synth = benchmarkNames();
        for (std::size_t i = 0; i < synth.size() && i < 2; ++i)
            b.push_back(synth[i]);
        return b;
    }();
    return benches;
}

/** The injected fault intensities the resilience sweep covers. */
const std::vector<double> &
faultRates()
{
    static const std::vector<double> rates = {1e-4, 1e-3};
    return rates;
}

/** The non-trivial shipped plans ("none" is covered by every other
 *  experiment and by the golden-signature tests). */
std::vector<std::string>
activeFaultPlans()
{
    std::vector<std::string> plans;
    for (const auto &name : faultNames())
        if (name != "none")
            plans.push_back(name);
    return plans;
}

Experiment
faultsExperiment()
{
    Experiment e;
    e.name = "faults";
    e.title = "Resilience: fault plans x rates x protocols x fabrics";
    e.subtitle = "Lossy links + soft errors under SECDED; every run"
                 " replayed through the invariant checker and the"
                 " reference memory";
    e.description =
        "Extension: fault-injection sweep classifying corrected /"
        " detected / silent outcomes";
    e.makeJobs = [] {
        std::vector<Job> jobs;
        for (const auto &plan : activeFaultPlans())
            for (const double rate : faultRates())
                for (const char *proto : {"lacc", "fullmap"})
                    for (const char *net : {"mesh", "xbar"})
                        for (const auto &bench : faultBenches()) {
                            SystemConfig cfg = defaultConfig();
                            applyProtocolName(cfg, proto);
                            applyNetworkName(cfg, net);
                            applyFaultName(cfg, plan);
                            cfg.faultRate = rate;
                            char rate_s[32];
                            std::snprintf(rate_s, sizeof(rate_s),
                                          "%g", rate);
                            jobs.push_back(
                                {bench, cfg,
                                 "faults " + plan + "@" + rate_s + " " +
                                     proto + " " + net + " " + bench});
                        }
        return jobs;
    };
    e.report = [](const ReportContext &ctx) {
        // Every cell aggregates the benches of one (plan, rate,
        // protocol, network) point; walk ctx.results directly (not
        // through Cursor) because classification needs the per-run
        // failed/failReason fields, not just the RunResult.
        std::size_t pos = 0;
        Table t({"Plan", "Rate", "Protocol", "Network", "Recovered",
                 "Detected", "Silent", "Retrans", "ECC fix", "Scrubs",
                 "Status"});
        Json points = Json::array();
        std::uint64_t total_silent = 0;
        std::uint64_t total_detected = 0;
        for (const auto &plan : activeFaultPlans())
            for (const double rate : faultRates())
                for (const char *proto : {"lacc", "fullmap"})
                    for (const char *net : {"mesh", "xbar"}) {
                        std::uint64_t recovered = 0, detected = 0,
                                      silent = 0, retrans = 0,
                                      ecc_fix = 0, scrubs = 0;
                        for (std::size_t bi = 0;
                             bi < faultBenches().size(); ++bi) {
                            if (pos >= ctx.results.size())
                                panic("faults report ran out of sweep"
                                      " results");
                            const JobResult &jr = ctx.results[pos++];
                            const FaultStats &f = jr.result.stats.faults;
                            if (jr.failed) {
                                // RunAbort: the fault was *detected*
                                // (budget exhaustion, unrecoverable
                                // double-bit) — honest, not silent.
                                ++detected;
                                continue;
                            }
                            // Completed runs must be functionally and
                            // structurally clean; anything else is a
                            // silent corruption that escaped recovery.
                            if (jr.result.functionalErrors != 0 ||
                                jr.result.verifyViolations != 0 ||
                                f.silentCorruptions != 0)
                                ++silent;
                            else if (f.any())
                                ++recovered;
                            retrans += f.retransmits;
                            ecc_fix += f.eccCorrected;
                            scrubs += f.scrubs;
                        }
                        total_silent += silent;
                        total_detected += detected;
                        char rate_s[32];
                        std::snprintf(rate_s, sizeof(rate_s), "%g",
                                      rate);
                        t.addRow({plan, rate_s, proto, net,
                                  std::to_string(recovered),
                                  std::to_string(detected),
                                  std::to_string(silent),
                                  std::to_string(retrans),
                                  std::to_string(ecc_fix),
                                  std::to_string(scrubs),
                                  silent == 0 ? "ok" : "SILENT"});
                        Json pt = Json::object();
                        pt["plan"] = plan;
                        pt["rate"] = rate;
                        pt["protocol"] = proto;
                        pt["network"] = net;
                        pt["recovered"] = recovered;
                        pt["detected"] = detected;
                        pt["silent"] = silent;
                        pt["retransmits"] = retrans;
                        pt["ecc_corrected"] = ecc_fix;
                        pt["scrubs"] = scrubs;
                        points.push(std::move(pt));
                    }
        if (pos != ctx.results.size())
            panic("faults report consumed %zu of %zu sweep results",
                  pos, ctx.results.size());
        t.print(ctx.out);
        ctx.out << (total_silent == 0
                        ? "\nZero silent corruptions: every injected"
                          " fault was corrected, retransmitted, or"
                          " detected\n"
                        : "\nSILENT CORRUPTIONS DETECTED — a fault"
                          " escaped the recovery paths\n");
        Json fig = Json::object();
        fig["table"] = t.toJson();
        fig["points"] = std::move(points);
        fig["silent_corruptions"] = total_silent;
        fig["detected_fatal"] = total_detected;
        return fig;
    };
    return e;
}

} // namespace

void
registerBuiltinExperiments(Registry &r)
{
    r.add(utilizationExperiment("fig01", true));
    r.add(utilizationExperiment("fig02", false));
    r.add(breakdownExperiment(true));
    r.add(breakdownExperiment(false));
    r.add(fig10Experiment());
    r.add(fig11Experiment());
    r.add(fig12Experiment());
    r.add(fig13Experiment());
    r.add(fig14Experiment());
    r.add(table1Experiment());
    r.add(table2Experiment());
    r.add(ablationExperiment());
    r.add(ackwiseExperiment());
    r.add(scalingExperiment());
    r.add(networkExperiment());
    r.add(litmusExperiment());
    r.add(faultsExperiment());
}

} // namespace lacc::harness
