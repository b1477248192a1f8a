/**
 * @file
 * The built-in experiment suite: every paper figure/table reproduction
 * and extension study, each declared once as a grid (points x benches)
 * with a report that reads the runs by coordinate.
 *
 * Most reports normalize a run to a reference run on the same bench;
 * ratio() does that once. A number read from a failed run is NaN, so
 * it prints "nan" in the text and null in the JSON, and so does every
 * ratio, sum and geomean computed from it.
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
#include "protocol/protocol.hh"
#include "system/report.hh"
#include "workload/litmus.hh"
#include "workload/suite.hh"

namespace lacc::harness {

namespace {

/**
 * The points of a PCT sweep, labeled "PCT=<pct>": the default config
 * (Limited_3, ACKwise_4 as Table 1) at each PCT.
 */
std::vector<Point>
pctPoints(std::initializer_list<std::uint32_t> pcts)
{
    std::vector<Point> points;
    for (const auto pct : pcts) {
        SystemConfig cfg = defaultConfig();
        cfg.pct = pct;
        // RAT levels span [PCT, RATmax]; keep the invariant for the
        // very high PCT points of the Fig 11 sweep.
        if (cfg.ratMax < pct)
            cfg.ratMax = pct;
        points.push_back({"PCT=" + std::to_string(pct), cfg});
    }
    return points;
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

/**
 * @p v over @p ref, a zero reference counting as 1; NaN when either is
 * NaN (a number read from a failed run).
 */
double
ratio(double v, double ref)
{
    return std::isnan(ref) ? ref : v / (ref > 0 ? ref : 1.0);
}

/** Completion time and energy, each relative to a reference run. */
struct Ratio
{
    double time;
    double energy;
};

/** Point @p p's run on bench @p b over point @p ref's run on it. */
Ratio
ratio(const Sweep &s, std::size_t p, std::size_t ref, std::size_t b)
{
    const auto time = &RunResult::completionTime;
    const auto energy = &RunResult::energyTotal;
    return {ratio(s.value(p, b, time), s.value(ref, b, time)),
            ratio(s.value(p, b, energy), s.value(ref, b, energy))};
}

/** Geomeans over the benches of point @p p's ratios to point @p ref. */
Ratio
geomeanRatio(const Sweep &s, std::size_t p, std::size_t ref)
{
    std::vector<double> times, energies;
    for (std::size_t b = 0; b < s.exp.benches.size(); ++b) {
        const Ratio r = ratio(s, p, ref, b);
        times.push_back(r.time);
        energies.push_back(r.energy);
    }
    return {geomean(times), geomean(energies)};
}

/** A figure block holding table @p t as "table". */
Json
tableFigure(const Table &t)
{
    Json fig = Json::object();
    fig["table"] = t.toJson();
    return fig;
}

/** A count summed over runs, as JSON: null when a run failed. */
Json
countJson(double n)
{
    return std::isnan(n) ? Json() : Json(static_cast<std::uint64_t>(n));
}

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
    e.tag = inval ? "fig1" : "fig2";
    e.points = {{"", baselineConfig()}};
    e.benches = benchmarkNames();
    e.report = [inval](const Sweep &s, std::ostream &out) {
        Table t({"Benchmark", "1", "2-3", "4-5", "6-7", ">=8", "total",
                 "<4 (frac)"});
        for (std::size_t b = 0; b < s.exp.benches.size(); ++b) {
            const auto hist = [&](auto f) {
                return s.value(0, b, [&](const RunResult &r) {
                    return f(inval ? r.stats.invalidationUtil
                                   : r.stats.evictionUtil);
                });
            };
            std::vector<std::string> row = {s.exp.benches[b]};
            for (std::uint32_t k = 0; k < 5; ++k)
                row.push_back(fmtPct(hist([k](const auto &h) {
                    return h.bucketFraction(k);
                })));
            row.push_back(
                fmt(hist([](const auto &h) { return h.total(); }), 0));
            row.push_back(fmt(
                hist([](const auto &h) { return h.fractionBelow(4); }), 2));
            t.addRow(std::move(row));
        }
        t.print(out);
        out << (inval ? "\nShape check: low-utilization buckets"
                        " dominate for streaming/sharing-heavy"
                        " benchmarks\n"
                      : "\nShape check: streaming benchmarks evict"
                        " mostly low-utilization lines\n");
        return tableFigure(t);
    };
    return e;
}

// -------------------------------------------------------------------------
// Figures 8 & 9: component breakdowns vs PCT, normalized to PCT = 1.
// -------------------------------------------------------------------------

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
    e.tag = energy ? "fig8" : "fig9";
    e.points = pctPoints({1, 2, 3, 4, 5, 6, 7, 8});
    e.benches = benchmarkNames();
    e.benchMajor = true;
    e.report = [energy](const Sweep &s, std::ostream &out) {
        const auto &names = s.exp.benches;
        const auto &points = s.exp.points;
        std::vector<std::vector<double>> avg(
            points.size(), std::vector<double>(6, 0.0));
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
        for (std::size_t b = 0; b < names.size(); ++b) {
            double base_total = 0.0;
            for (std::size_t p = 0; p < points.size(); ++p) {
                std::vector<double> v(6);
                for (std::size_t i = 0; i < v.size(); ++i)
                    v[i] = s.value(p, b, [&](const RunResult &r) {
                        return energy ? fieldValues(r.stats.energy)[i]
                                      : fieldValues(
                                            r.stats.totalLatency())[i];
                    });
                double total = 0.0;
                for (const double c : v)
                    total += c;
                if (p == 0)
                    base_total = total;
                std::vector<std::string> row = {
                    names[b], std::to_string(points[p].cfg.pct)};
                for (std::size_t i = 0; i < v.size(); ++i) {
                    const double n = ratio(v[i], base_total);
                    avg[p][i] += n / static_cast<double>(names.size());
                    row.push_back(fmt(n, 3));
                }
                row.push_back(fmt(ratio(total, base_total), 3));
                t.addRow(std::move(row));
            }
        }
        for (std::size_t p = 0; p < points.size(); ++p) {
            std::vector<std::string> row = {
                "AVERAGE", std::to_string(points[p].cfg.pct)};
            double total = 0.0;
            for (const double c : avg[p]) {
                row.push_back(fmt(c, 3));
                total += c;
            }
            row.push_back(fmt(total, 3));
            t.addRow(std::move(row));
        }
        t.print(out);
        out << (energy ? "\nShape check (paper): average energy falls"
                         " ~25% by PCT 4; links dominate routers at"
                         " 11nm\n"
                       : "\nShape check (paper): average completion"
                         " time falls ~15% by PCT 4; waiting/sharers"
                         " components shrink\n");
        Json fig = tableFigure(t);
        Json averages = Json::array();
        for (std::size_t p = 0; p < points.size(); ++p) {
            Json row = Json::object();
            row["pct"] = points[p].cfg.pct;
            Json comps = Json::array();
            for (const double c : avg[p])
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
    e.tag = "fig10";
    e.points = pctPoints({1, 2, 3, 4, 6, 8});
    e.benches = benchmarkNames();
    e.benchMajor = true;
    e.report = [](const Sweep &s, std::ostream &out) {
        Table t({"Benchmark", "PCT", "Miss%", "Cold%", "Cap%", "Upg%",
                 "Shar%", "Word%"});
        for (std::size_t b = 0; b < s.exp.benches.size(); ++b) {
            for (std::size_t p = 0; p < s.exp.points.size(); ++p) {
                const auto pc = [&](auto percent) {
                    return fmt(s.value(p, b, percent), 2);
                };
                const auto share = [&](MissType ty) {
                    return pc([ty](const RunResult &r) {
                        const double acc = static_cast<double>(
                            r.stats.totalL1dAccesses());
                        return 100.0 *
                               static_cast<double>(
                                   r.stats.totalMisses().get(ty)) /
                               (acc > 0 ? acc : 1);
                    });
                };
                t.addRow({s.exp.benches[b],
                          std::to_string(s.exp.points[p].cfg.pct),
                          pc([](const RunResult &r) {
                              return 100.0 * r.stats.l1dMissRate();
                          }),
                          share(MissType::Cold), share(MissType::Capacity),
                          share(MissType::Upgrade),
                          share(MissType::Sharing), share(MissType::Word)});
            }
        }
        t.print(out);
        return tableFigure(t);
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
    e.tag = "fig11";
    e.points =
        pctPoints({1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 18, 20});
    e.benches = benchmarkNames();
    e.report = [](const Sweep &s, std::ostream &out) {
        Table t({"PCT", "Completion Time (geomean)",
                 "Energy (geomean)"});
        Json points = Json::array();
        std::size_t best = s.exp.points.size();
        double best_time = 1e300;
        for (std::size_t p = 0; p < s.exp.points.size(); ++p) {
            const std::uint32_t pct = s.exp.points[p].cfg.pct;
            const Ratio gm = geomeanRatio(s, p, 0);
            t.addRow({std::to_string(pct), fmt(gm.time, 3),
                      fmt(gm.energy, 3)});
            Json pt = Json::object();
            pt["pct"] = pct;
            pt["geomean_time"] = gm.time;
            pt["geomean_energy"] = gm.energy;
            points.push(std::move(pt));
            if (gm.time < best_time) {
                best_time = gm.time;
                best = p;
            }
        }
        t.print(out);
        if (best < s.exp.points.size()) {
            const auto &row = t.rows()[best];
            out << "\nBest completion time at PCT " << row[0] << " (time "
                << row[1] << ", energy " << row[2] << ")\n";
        }
        out << "Paper: PCT 4 gives ~0.85 completion time and ~0.75"
               " energy\n";
        Json fig = tableFigure(t);
        fig["points"] = std::move(points);
        if (best < s.exp.points.size())
            fig["best_pct"] =
                static_cast<std::uint64_t>(s.exp.points[best].cfg.pct);
        return fig;
    };
    return e;
}

// -------------------------------------------------------------------------
// Figure 12: RAT level/threshold sensitivity.
// -------------------------------------------------------------------------

/** Complete tracking with @p levels RAT levels up to @p ratMax. */
Point
ratPoint(const char *label, std::uint32_t levels, std::uint32_t ratMax)
{
    SystemConfig cfg = defaultConfig();
    cfg.classifierKind = ClassifierKind::Complete;
    cfg.nRatLevels = levels;
    cfg.ratMax = ratMax;
    return {label, cfg};
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
    e.tag = "fig12";
    SystemConfig timestamp = defaultConfig();
    timestamp.classifierKind = ClassifierKind::Timestamp;
    e.points = {{"Timestamp", timestamp},   ratPoint("L-1", 1, 16),
                ratPoint("L-2,T-8", 2, 8),  ratPoint("L-2,T-16", 2, 16),
                ratPoint("L-4,T-8", 4, 8),  ratPoint("L-4,T-16", 4, 16),
                ratPoint("L-8,T-16", 8, 16)};
    e.benches = benchmarkNames();
    e.report = [](const Sweep &s, std::ostream &out) {
        Table t({"Scheme", "Completion Time", "Energy"});
        for (std::size_t p = 0; p < s.exp.points.size(); ++p) {
            const Ratio gm = geomeanRatio(s, p, 0);
            t.addRow({s.exp.points[p].label, fmt(gm.time, 3),
                      fmt(gm.energy, 3)});
        }
        t.print(out);
        out << "\nPaper: L-1 costs ~9% energy; L-2,T-16 matches"
               " the Timestamp scheme; extra levels add nothing\n";
        return tableFigure(t);
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
    e.tag = "fig13";
    SystemConfig complete = defaultConfig();
    complete.classifierKind = ClassifierKind::Complete;
    e.points = {{"Complete", complete}};
    for (const std::uint32_t k : {1, 3, 5, 7}) {
        SystemConfig cfg = defaultConfig();
        cfg.classifierKind = ClassifierKind::Limited;
        cfg.classifierK = k;
        e.points.push_back({"k=" + std::to_string(k), cfg});
    }
    e.benches = benchmarkNames();
    e.report = [](const Sweep &s, std::ostream &out) {
        const auto &names = s.exp.benches;
        Table t({"Benchmark", "k", "Completion Time", "Energy"});
        for (std::size_t p = 1; p < s.exp.points.size(); ++p) {
            for (std::size_t b = 0; b < names.size(); ++b) {
                const Ratio r = ratio(s, p, 0, b);
                t.addRow({names[b],
                          std::to_string(s.exp.points[p].cfg.classifierK),
                          fmt(r.time, 3), fmt(r.energy, 3)});
            }
        }
        for (std::size_t b = 0; b < names.size(); ++b)
            t.addRow({names[b], "64(Complete)", "1.000", "1.000"});
        t.print(out);

        out << "\nGeomeans vs Complete:\n";
        Table g({"k", "Completion Time", "Energy"});
        for (std::size_t p = 1; p < s.exp.points.size(); ++p) {
            const Ratio gm = geomeanRatio(s, p, 0);
            g.addRow({std::to_string(s.exp.points[p].cfg.classifierK),
                      fmt(gm.time, 3), fmt(gm.energy, 3)});
        }
        g.addRow({"64", "1.000", "1.000"});
        g.print(out);
        out << "\nPaper: Limited_3 within ~3% of Complete;"
               " Limited_1 suffers on radix/bodytrack\n";
        Json fig = tableFigure(t);
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
    e.tag = "fig14";
    SystemConfig one_way = defaultConfig();
    one_way.protocolKind = ProtocolKind::AdaptOneWay;
    e.points = {{"2way", defaultConfig()}, {"1way", one_way}};
    e.benches = benchmarkNames();
    e.report = [](const Sweep &s, std::ostream &out) {
        Table t({"Benchmark", "Completion Time ratio", "Energy ratio"});
        for (std::size_t b = 0; b < s.exp.benches.size(); ++b) {
            const Ratio r = ratio(s, 1, 0, b);
            t.addRow({s.exp.benches[b], fmt(r.time, 3), fmt(r.energy, 3)});
        }
        const Ratio gm = geomeanRatio(s, 1, 0);
        t.addRow({"GEOMEAN", fmt(gm.time, 3), fmt(gm.energy, 3)});
        t.print(out);
        out << "\nPaper: average ~1.34x completion time / ~1.13x"
               " energy; bodytrack ~3.3x, dijkstra-ss ~2.3x\n";
        Json fig = tableFigure(t);
        fig["geomean_time_ratio"] = gm.time;
        fig["geomean_energy_ratio"] = gm.energy;
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
    e.report = [](const Sweep &, std::ostream &out) {
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
        t.print(out);

        out << "\nSection 3.6: storage overhead per core\n\n";
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
        s.print(out);

        out << "\nOverhead vs baseline ACKwise4 (incl. caches):\n"
            << "  Limited3 classifier: "
            << fmt(m.overheadPercentVsAckwise(false), 2)
            << "%   (paper: 5.7%)\n"
            << "  Complete classifier: "
            << fmt(m.overheadPercentVsAckwise(true), 2)
            << "%   (paper: 60%)\n"
            << "  Limited3 + ACKwise4 = "
            << fmt(m.limitedOverheadKB() + m.ackwiseKB(), 1)
            << " KB < full-map " << fmt(m.fullMapKB(), 1) << " KB: "
            << (m.limitedOverheadKB() + m.ackwiseKB() < m.fullMapKB()
                    ? "HOLDS"
                    : "VIOLATED")
            << "\n";
        Json fig = tableFigure(t);
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
    e.report = [](const Sweep &sweep, std::ostream &out) {
        const SystemConfig cfg = defaultConfig();
        Table t({"Benchmark", "Paper problem size", "Archetype mix",
                 "Private WS", "Shared WS", "Ops/core"});
        for (const auto &bench : benchmarkNames()) {
            const auto s = benchmarkSpec(bench, cfg, sweep.opScale);
            const auto priv = s.privateHotBytes + s.privateStreamBytes;
            const auto shared = s.sharedROBytes + s.sharedPCBytes +
                                s.sharedStreamBytes;
            t.addRow({bench, benchmarkProblemSize(bench),
                      mixSummary(s), kb(priv), kb(shared),
                      std::to_string(static_cast<std::uint64_t>(
                                         s.opsPerPhase) *
                                     s.numPhases)});
        }
        t.print(out);
        return tableFigure(t);
    };
    return e;
}

// -------------------------------------------------------------------------
// Ablations: learning short-cut & R-NUCA placement.
// -------------------------------------------------------------------------

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
    e.tag = "ablation";
    SystemConfig complete = defaultConfig();
    complete.classifierKind = ClassifierKind::Complete;
    SystemConfig shortcut = complete;
    shortcut.completeLearningShortcut = true;
    SystemConfig snuca = defaultConfig();
    snuca.rnucaEnabled = false;
    // Two studies of two points each, the first point the reference.
    e.points = {{"Complete (paper)", complete},
                {"Complete + learning short-cut", shortcut},
                {"R-NUCA", defaultConfig()},
                {"Static-NUCA (hash only)", snuca}};
    e.benches = benchmarkNames();
    e.report = [](const Sweep &s, std::ostream &out) {
        const auto study = [&](const char *title, std::size_t ref) {
            Table t({"Variant", "Completion Time", "Energy"});
            for (std::size_t p = ref; p < ref + 2; ++p) {
                const Ratio gm = geomeanRatio(s, p, ref);
                t.addRow({s.exp.points[p].label, fmt(gm.time, 3),
                          fmt(gm.energy, 3)});
            }
            out << "\n" << title << "\n";
            t.print(out);
            return t.toJson();
        };
        Json fig = Json::object();
        fig["learning_shortcut"] =
            study("Complete classifier: per-sharer learning vs"
                  " majority-vote seeding (§5.3 extension)",
                  0);
        fig["placement"] = study(
            "Placement: R-NUCA (paper baseline) vs static-NUCA", 2);
        out << "\nExpected: the short-cut helps sharing-heavy"
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
    e.tag = "ackwise";
    // The two directory organizations, selected by protocol name
    // (identical configs to setting directoryKind by hand).
    SystemConfig fullmap = baselineConfig();
    applyProtocolName(fullmap, "fullmap");
    e.points = {{"ack", baselineConfig()}, {"fullmap", fullmap}};
    e.benches = benchmarkNames();
    e.report = [](const Sweep &s, std::ostream &out) {
        Table t({"Benchmark", "Completion Time ratio", "Energy ratio",
                 "Broadcasts"});
        for (std::size_t b = 0; b < s.exp.benches.size(); ++b) {
            const Ratio r = ratio(s, 0, 1, b);
            const double broadcasts =
                s.value(0, b, [](const RunResult &run) {
                    return run.stats.protocol.broadcastInvals;
                });
            t.addRow({s.exp.benches[b], fmt(r.time, 4), fmt(r.energy, 4),
                      fmt(broadcasts, 0)});
        }
        const Ratio gm = geomeanRatio(s, 0, 1);
        t.addRow({"GEOMEAN", fmt(gm.time, 4), fmt(gm.energy, 4), "-"});
        t.print(out);
        out << "\nDeviation from full-map: completion "
            << fmt(std::abs(gm.time - 1.0) * 100, 2) << "%, energy "
            << fmt(std::abs(gm.energy - 1.0) * 100, 2)
            << "% (paper: within 1%)\n";
        Json fig = tableFigure(t);
        fig["geomean_time_ratio"] = gm.time;
        fig["geomean_energy_ratio"] = gm.energy;
        return fig;
    };
    return e;
}

// -------------------------------------------------------------------------
// Scaling study: benefit vs core count.
// -------------------------------------------------------------------------

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
    e.tag = "scaling";
    // {cores, mesh width}. The 256-core point is affordable serially:
    // streamcluster takes ~2.5 s per run at scale 1 (4-vCPU Xeon VM,
    // gcc 12, -O3).
    const std::uint32_t sizes[][2] = {{16, 4}, {32, 8}, {64, 8}, {256, 16}};
    for (const auto &sz : sizes)
        for (const bool adaptive : {false, true}) {
            SystemConfig cfg = adaptive ? defaultConfig() : baselineConfig();
            cfg.numCores = sz[0];
            cfg.meshWidth = sz[1];
            cfg.numMemControllers = 8;
            e.points.push_back({std::to_string(sz[0]) + "c " +
                                    (adaptive ? "adapt" : "base"),
                                cfg});
        }
    e.benches = benchmarkNames();
    e.report = [](const Sweep &s, std::ostream &out) {
        const double n = static_cast<double>(s.exp.benches.size());
        const auto hops_per_access = [](const RunResult &r) {
            return static_cast<double>(r.stats.network.flitHops) /
                   static_cast<double>(r.stats.totalL1dAccesses() + 1);
        };
        Table t({"Cores", "Completion ratio", "Energy ratio",
                 "Baseline flit-hops/access",
                 "Adaptive flit-hops/access"});
        // Each core count is a baseline point, then an adaptive one.
        for (std::size_t p = 0; p < s.exp.points.size(); p += 2) {
            const Ratio gm = geomeanRatio(s, p + 1, p);
            double base_hops = 0, adapt_hops = 0;
            for (std::size_t b = 0; b < s.exp.benches.size(); ++b) {
                base_hops += s.value(p, b, hops_per_access);
                adapt_hops += s.value(p + 1, b, hops_per_access);
            }
            t.addRow({std::to_string(s.exp.points[p].cfg.numCores),
                      fmt(gm.time, 3), fmt(gm.energy, 3),
                      fmt(base_hops / n, 2), fmt(adapt_hops / n, 2)});
        }
        t.print(out);
        out << "\nExpected: the adaptive/baseline ratio falls"
               " (bigger win) as the machine grows\n";
        return tableFigure(t);
    };
    return e;
}

// -------------------------------------------------------------------------
// Topology sensitivity: how much of LACC's win depends on cheap
// broadcast?
// -------------------------------------------------------------------------

/** "ACKwise<p>" or "FullMap": a topology-sweep point's directory. */
std::string
directoryLabel(const SystemConfig &cfg)
{
    return cfg.directoryKind == DirectoryKind::FullMap
               ? "FullMap"
               : "ACKwise" + std::to_string(cfg.ackwisePointers);
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
    e.tag = "network";
    // Every directory on every fabric, fabrics in networkNames() order,
    // which leads with "mesh" (the factory's default). The full-map
    // directory comes last: it never broadcasts, so it anchors the
    // broadcast-cost comparison.
    SystemConfig ackwise2 = defaultConfig();
    ackwise2.ackwisePointers = 2;
    SystemConfig fullmap = defaultConfig();
    fullmap.directoryKind = DirectoryKind::FullMap;
    for (SystemConfig cfg : {ackwise2, defaultConfig(), fullmap})
        for (const auto &net : networkNames()) {
            applyNetworkName(cfg, net);
            e.points.push_back({directoryLabel(cfg) + " " + net, cfg});
        }
    e.benches = benchmarkNames();
    e.report = [](const Sweep &s, std::ostream &out) {
        const auto &points = s.exp.points;
        const auto &nets = networkNames();
        const auto sum = [&s](std::size_t p, auto f) {
            double v = 0.0;
            for (std::size_t b = 0; b < s.exp.benches.size(); ++b)
                v += s.value(p, b, f);
            return v;
        };
        const auto broadcasts = [](const RunResult &r) {
            return r.stats.network.broadcasts;
        };
        const auto flit_hops = [](const RunResult &r) {
            return r.stats.network.flitHops;
        };

        // Table 1: each variant normalized to ITS OWN mesh run, so a
        // row reads "what switching the fabric costs this directory".
        Table t({"Variant", "Network", "Completion Time", "Energy",
                 "Broadcasts", "Flit-hops vs mesh"});
        Json jpoints = Json::array();
        for (std::size_t p = 0; p < points.size(); ++p) {
            const std::size_t mesh = p - p % nets.size();
            const Ratio gm = geomeanRatio(s, p, mesh);
            const double bcasts = sum(p, broadcasts);
            const double hops =
                ratio(sum(p, flit_hops), sum(mesh, flit_hops));
            const std::string variant = directoryLabel(points[p].cfg);
            const char *net = networkNameFor(points[p].cfg);
            t.addRow({variant, net, fmt(gm.time, 3), fmt(gm.energy, 3),
                      fmt(bcasts, 0), fmt(hops, 3)});
            Json pt = Json::object();
            pt["variant"] = variant;
            pt["network"] = net;
            pt["geomean_time_vs_mesh"] = gm.time;
            pt["geomean_energy_vs_mesh"] = gm.energy;
            pt["broadcasts"] = countJson(bcasts);
            pt["flit_hops_vs_mesh"] = hops;
            jpoints.push(std::move(pt));
        }
        t.print(out);

        // Table 2: the limited directories against full-map on the
        // SAME fabric — the quantitative answer to "how much of the
        // ACKwise design depends on cheap broadcast".
        const std::size_t fm = points.size() - nets.size();
        out << "\nACKwise_p / FullMap on the same fabric (>1 means"
               " the limited directory loses):\n";
        Table g({"Network", "ACKwise2 time", "ACKwise2 energy",
                 "ACKwise4 time", "ACKwise4 energy"});
        Json ratios = Json::array();
        for (std::size_t ni = 0; ni < nets.size(); ++ni) {
            std::vector<std::string> row = {nets[ni]};
            Json jr = Json::object();
            jr["network"] = nets[ni];
            for (std::size_t p = ni; p < fm; p += nets.size()) {
                const Ratio gm = geomeanRatio(s, p, fm + ni);
                const std::string variant = directoryLabel(points[p].cfg);
                row.push_back(fmt(gm.time, 4));
                row.push_back(fmt(gm.energy, 4));
                jr[variant + "_time_ratio"] = gm.time;
                jr[variant + "_energy_ratio"] = gm.energy;
            }
            g.addRow(std::move(row));
            ratios.push(std::move(jr));
        }
        g.print(out);
        out << "\nShape check: ACKwise tracks full-map closely on"
               " broadcast-capable fabrics (mesh/torus/ring) and"
               " drifts on the crossbar, where every overflow"
               " broadcast pays N-1 serialized unicasts; fewer"
               " pointers (ACKwise2) amplify the gap\n";
        Json fig = tableFigure(t);
        fig["vs_fullmap"] = g.toJson();
        fig["points"] = std::move(jpoints);
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
    for (const auto &proto : protocolNames()) {
        SystemConfig cfg = defaultConfig();
        applyProtocolName(cfg, proto);
        e.points.push_back({proto, cfg});
    }
    e.benches = litmusNames();
    e.report = [](const Sweep &s, std::ostream &out) {
        Table t({"Protocol", "Litmus", "Cycles", "Energy (uJ)",
                 "Func errors"});
        double errors = 0.0;
        for (std::size_t p = 0; p < s.exp.points.size(); ++p)
            for (std::size_t b = 0; b < s.exp.benches.size(); ++b) {
                const double err =
                    s.value(p, b, &RunResult::functionalErrors);
                errors += err;
                t.addRow({protocolNameFor(s.exp.points[p].cfg),
                          s.exp.benches[b],
                          fmt(s.value(p, b, &RunResult::completionTime), 0),
                          fmt(s.value(p, b, &RunResult::energyTotal) * 1e-6,
                              3),
                          fmt(err, 0)});
            }
        t.print(out);
        // A failed run leaves errors NaN: no verdict either way.
        out << (errors == 0   ? "\nAll litmus runs functionally clean\n"
                : errors > 0 ? "\nFUNCTIONAL ERRORS DETECTED\n"
                             : "\nNOT EVERY LITMUS RUN COMPLETED: no"
                               " functional verdict\n");
        Json fig = tableFigure(t);
        fig["functionalErrors"] = countJson(errors);
        return fig;
    };
    return e;
}

// -------------------------------------------------------------------------
// Resilience sweep: fault plans x rates x protocols x fabrics, every
// run replayed through the invariant checker and the reference memory.
// -------------------------------------------------------------------------

/** A fault rate as run labels and the faults table print it. */
std::string
rateName(double rate)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", rate);
    return buf;
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
    e.tag = "faults";
    // Every shipped plan but "none", which every other experiment and
    // the golden-signature tests cover.
    for (const auto &plan : faultNames()) {
        if (plan == "none")
            continue;
        for (const double rate : {1e-4, 1e-3})
            for (const char *proto : {"lacc", "fullmap"})
                for (const char *net : {"mesh", "xbar"}) {
                    SystemConfig cfg = defaultConfig();
                    applyProtocolName(cfg, proto);
                    applyNetworkName(cfg, net);
                    applyFaultName(cfg, plan);
                    cfg.faultRate = rate;
                    e.points.push_back({plan + "@" + rateName(rate) + " " +
                                            proto + " " + net,
                                        cfg});
                }
    }
    // All litmus archetypes (functional checks are always on for
    // those) plus the two leading synthetic benchmarks (which
    // runBenchmark runs with functional checks forced on whenever
    // faults are active).
    e.benches = litmusNames();
    e.benches.insert(e.benches.end(), benchmarkNames().begin(),
                     benchmarkNames().begin() + 2);
    e.report = [](const Sweep &s, std::ostream &out) {
        Table t({"Plan", "Rate", "Protocol", "Network", "Recovered",
                 "Detected", "Silent", "Retrans", "ECC fix", "Scrubs",
                 "Status"});
        Json points = Json::array();
        std::uint64_t total_silent = 0;
        std::uint64_t total_detected = 0;
        for (std::size_t p = 0; p < s.exp.points.size(); ++p) {
            // One row aggregates the benches of one (plan, rate,
            // protocol, network) point.
            std::uint64_t recovered = 0, detected = 0, silent = 0,
                          retrans = 0, ecc_fix = 0, scrubs = 0;
            for (std::size_t b = 0; b < s.exp.benches.size(); ++b) {
                // Classification needs the failed flag, not just the
                // numbers, so read the run itself.
                const JobResult &jr = s.at(p, b);
                const FaultStats &f = jr.result.stats.faults;
                if (jr.failed) {
                    // RunAbort: the fault was *detected* (budget
                    // exhaustion, unrecoverable double-bit) — honest,
                    // not silent.
                    ++detected;
                    continue;
                }
                // Completed runs must be functionally and
                // structurally clean; anything else is a silent
                // corruption that escaped recovery.
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
            const SystemConfig &cfg = s.exp.points[p].cfg;
            t.addRow({faultNameFor(cfg), rateName(cfg.faultRate),
                      protocolNameFor(cfg), networkNameFor(cfg),
                      std::to_string(recovered), std::to_string(detected),
                      std::to_string(silent), std::to_string(retrans),
                      std::to_string(ecc_fix), std::to_string(scrubs),
                      silent == 0 ? "ok" : "SILENT"});
            Json pt = Json::object();
            pt["plan"] = faultNameFor(cfg);
            pt["rate"] = cfg.faultRate;
            pt["protocol"] = protocolNameFor(cfg);
            pt["network"] = networkNameFor(cfg);
            pt["recovered"] = recovered;
            pt["detected"] = detected;
            pt["silent"] = silent;
            pt["retransmits"] = retrans;
            pt["ecc_corrected"] = ecc_fix;
            pt["scrubs"] = scrubs;
            points.push(std::move(pt));
        }
        t.print(out);
        out << (total_silent == 0
                    ? "\nZero silent corruptions: every injected"
                      " fault was corrected, retransmitted, or"
                      " detected\n"
                    : "\nSILENT CORRUPTIONS DETECTED — a fault"
                      " escaped the recovery paths\n");
        Json fig = tableFigure(t);
        fig["points"] = std::move(points);
        fig["silent_corruptions"] = total_silent;
        fig["detected_fatal"] = total_detected;
        return fig;
    };
    return e;
}

} // namespace

const std::vector<Experiment> &
experiments()
{
    static const std::vector<Experiment> list = {
        utilizationExperiment("fig01", true),
        utilizationExperiment("fig02", false),
        breakdownExperiment(true),
        breakdownExperiment(false),
        fig10Experiment(),
        fig11Experiment(),
        fig12Experiment(),
        fig13Experiment(),
        fig14Experiment(),
        table1Experiment(),
        table2Experiment(),
        ablationExperiment(),
        ackwiseExperiment(),
        scalingExperiment(),
        networkExperiment(),
        litmusExperiment(),
        faultsExperiment(),
    };
    return list;
}

} // namespace lacc::harness
