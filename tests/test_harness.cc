/**
 * @file
 * Harness coverage: JSON value/writer/parser behavior, the experiment
 * list and its grids, RunResult JSON round-trips, the sink document
 * schema, LACC_SCALE validation, the determinism guard (a 2-job
 * parallel sweep must be bit-identical to the serial run), and every
 * report over fabricated sweeps, with and without a failed run.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "harness/registry.hh"
#include "harness/runner.hh"
#include "harness/sink.hh"
#include "sim/json.hh"
#include "sim/rng.hh"
#include "system/report.hh"

using namespace lacc;
using namespace lacc::harness;

namespace {

/** Small 16-core config so simulation-backed tests stay fast. */
SystemConfig
smallConfig()
{
    SystemConfig cfg = defaultConfig();
    cfg.numCores = 16;
    cfg.meshWidth = 4;
    return cfg;
}

constexpr double kTinyScale = 0.01;

/** The built-in experiment named @p name. */
const Experiment &
builtin(const std::string &name)
{
    for (const auto &e : experiments())
        if (e.name == name)
            return e;
    ADD_FAILURE() << "no experiment " << name;
    return experiments().front();
}

} // namespace

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

TEST(Json, ScalarsAndTypes)
{
    EXPECT_TRUE(Json().isNull());
    EXPECT_TRUE(Json(true).isBool());
    EXPECT_TRUE(Json(42).isNumber());
    EXPECT_TRUE(Json(1.5).isNumber());
    EXPECT_TRUE(Json("hi").isString());
    EXPECT_TRUE(Json::array().isArray());
    EXPECT_TRUE(Json::object().isObject());

    EXPECT_EQ(Json(-7).asInt(), -7);
    EXPECT_EQ(Json(7u).asUint(), 7u);
    EXPECT_DOUBLE_EQ(Json(2.5).asDouble(), 2.5);
    EXPECT_DOUBLE_EQ(Json(7).asDouble(), 7.0);
    EXPECT_EQ(Json("abc").asString(), "abc");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Json j = Json::object();
    j["zeta"] = 1;
    j["alpha"] = 2;
    j["mid"] = 3;
    const auto &items = j.items();
    ASSERT_EQ(items.size(), 3u);
    EXPECT_EQ(items[0].first, "zeta");
    EXPECT_EQ(items[1].first, "alpha");
    EXPECT_EQ(items[2].first, "mid");
    EXPECT_EQ(j.dump(0), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
}

TEST(Json, DumpParseRoundTrip)
{
    Json j = Json::object();
    j["u64"] = std::uint64_t{18446744073709551615ull};
    j["neg"] = -123456789;
    j["pi"] = 3.141592653589793;
    j["text"] = "line\nbreak \"quoted\" \\slash\t";
    j["flag"] = false;
    j["nothing"] = Json();
    Json arr = Json::array();
    arr.push(1);
    arr.push("two");
    arr.push(Json::array());
    j["arr"] = std::move(arr);

    for (const int indent : {0, 2}) {
        std::string err;
        const Json back = Json::parse(j.dump(indent), &err);
        EXPECT_TRUE(err.empty()) << err;
        EXPECT_EQ(back, j);
        EXPECT_EQ(back.dump(2), j.dump(2));
    }
    EXPECT_EQ(j.at("u64").asUint(), 18446744073709551615ull);
    EXPECT_EQ(j.at("neg").asInt(), -123456789);
}

TEST(Json, ParseAcceptsStandardForms)
{
    std::string err;
    const Json j = Json::parse(
        " { \"a\" : [ 1 , -2.5e3 , true , null , \"\\u0041\\u00e9\" ] } ",
        &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_TRUE(j.isObject());
    const Json &a = j.at("a");
    ASSERT_EQ(a.size(), 5u);
    EXPECT_EQ(a.at(std::size_t{0}).asUint(), 1u);
    EXPECT_DOUBLE_EQ(a.at(1).asDouble(), -2500.0);
    EXPECT_TRUE(a.at(2).asBool());
    EXPECT_TRUE(a.at(3).isNull());
    EXPECT_EQ(a.at(4).asString(), "A\xc3\xa9");
}

TEST(Json, ParseRejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated",
          "{\"a\":1} trailing", "[1 2]", "nan"}) {
        std::string err;
        const Json j = Json::parse(bad, &err);
        EXPECT_TRUE(j.isNull()) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(Json, FindAndMissingKeys)
{
    Json j = Json::object();
    j["present"] = 1;
    EXPECT_NE(j.find("present"), nullptr);
    EXPECT_EQ(j.find("absent"), nullptr);
    EXPECT_EQ(Json().find("anything"), nullptr);
}

// ---------------------------------------------------------------------------
// Table JSON
// ---------------------------------------------------------------------------

TEST(TableJson, HeadersAndRows)
{
    Table t({"a", "b"});
    t.addRow({"1", "x"});
    t.addRow({"2", "y"});
    const Json j = t.toJson();
    ASSERT_EQ(j.at("headers").size(), 2u);
    EXPECT_EQ(j.at("headers").at(std::size_t{0}).asString(), "a");
    ASSERT_EQ(j.at("rows").size(), 2u);
    EXPECT_EQ(j.at("rows").at(1).at(1).asString(), "y");
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, BuiltinsRegistered)
{
    std::vector<std::string> names;
    for (const auto &e : experiments())
        names.push_back(e.name);
    const std::vector<std::string> expected = {
        "fig01", "fig02",  "fig08",  "fig09",    "fig10",
        "fig11", "fig12",  "fig13",  "fig14",    "table1",
        "table2", "ablation", "ackwise", "scaling", "network",
        "litmus", "faults"};
    EXPECT_EQ(names, expected);
}

TEST(Registry, FindAndFilter)
{
    const auto fig08 = match("fig08");
    ASSERT_EQ(fig08.size(), 1u);
    EXPECT_EQ(fig08[0]->name, "fig08");
    EXPECT_EQ(fig08[0], &experiments()[2]);

    EXPECT_EQ(match("").size(), experiments().size());
    const auto tables = match("table");
    ASSERT_EQ(tables.size(), 2u);
    EXPECT_EQ(tables[0]->name, "table1");
    EXPECT_EQ(tables[1]->name, "table2");
    const auto fig1x = match("fig1");
    ASSERT_EQ(fig1x.size(), 5u); // fig10..fig14 (fig01 does not match)
    EXPECT_EQ(fig1x[0]->name, "fig10");
    EXPECT_TRUE(match("zzz").empty());
}

TEST(Registry, EveryExperimentDescribesItsSweep)
{
    for (const auto &exp : experiments()) {
        EXPECT_FALSE(exp.title.empty()) << exp.name;
        EXPECT_FALSE(exp.description.empty()) << exp.name;
        EXPECT_TRUE(exp.report) << exp.name;
        const auto jobs = exp.jobs();
        ASSERT_EQ(jobs.size(), exp.points.size() * exp.benches.size())
            << exp.name;
        // The run at each coordinate is that point's config on that
        // bench, and its label names both.
        for (std::size_t p = 0; p < exp.points.size(); ++p)
            for (std::size_t b = 0; b < exp.benches.size(); ++b) {
                const Job &job = jobs[exp.index(p, b)];
                EXPECT_EQ(job.bench, exp.benches[b]) << job.label;
                EXPECT_EQ(toJson(job.cfg).dump(0),
                          toJson(exp.points[p].cfg).dump(0))
                    << job.label;
                EXPECT_NE(job.label.find(exp.points[p].label),
                          std::string::npos)
                    << job.label;
                EXPECT_NE(job.label.find(exp.benches[b]), std::string::npos)
                    << job.label;
            }
        // tools/compare_bench_json.py matches runs by label, so a
        // duplicate label would hide a run.
        std::set<std::string> labels;
        for (const auto &job : jobs)
            EXPECT_TRUE(labels.insert(job.label).second)
                << exp.name << ": duplicate label '" << job.label << "'";
    }
}

// ---------------------------------------------------------------------------
// LACC_SCALE validation (opScaleFromEnv)
// ---------------------------------------------------------------------------

TEST(OpScale, ValidatesEnvironment)
{
    const auto with = [](const char *value) {
        if (value == nullptr)
            unsetenv("LACC_SCALE");
        else
            setenv("LACC_SCALE", value, 1);
        const double v = opScaleFromEnv();
        unsetenv("LACC_SCALE");
        return v;
    };
    EXPECT_DOUBLE_EQ(with(nullptr), 1.0);
    EXPECT_DOUBLE_EQ(with("2.5"), 2.5);
    EXPECT_DOUBLE_EQ(with("  0.125  "), 0.125);
    EXPECT_DOUBLE_EQ(with("1e-2"), 0.01);
    // Garbage, partial parses, and non-positive values fall back to 1.
    EXPECT_DOUBLE_EQ(with("banana"), 1.0);
    EXPECT_DOUBLE_EQ(with("2x"), 1.0);
    EXPECT_DOUBLE_EQ(with("1.5.2"), 1.0);
    EXPECT_DOUBLE_EQ(with(""), 1.0);
    EXPECT_DOUBLE_EQ(with("0"), 1.0);
    EXPECT_DOUBLE_EQ(with("-3"), 1.0);
    EXPECT_DOUBLE_EQ(with("inf"), 1.0);
    EXPECT_DOUBLE_EQ(with("nan"), 1.0);
}

// ---------------------------------------------------------------------------
// RunResult JSON round-trip
// ---------------------------------------------------------------------------

TEST(RunResultJson, RoundTripsThroughTextAndBack)
{
    const RunResult r =
        runBenchmark("matmul", smallConfig(), kTinyScale);
    ASSERT_GT(r.completionTime, 0u);

    const Json j = toJson(r);
    std::string err;
    const Json parsed = Json::parse(j.dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;

    // Re-dumping the parsed document is byte-identical.
    EXPECT_EQ(parsed.dump(2), j.dump(2));

    // The headline numbers read back equal the RunResult accessors.
    const Json &s = parsed.at("stats");
    EXPECT_EQ(parsed.at("completion_time").asUint(), r.completionTime);
    EXPECT_EQ(s.at("completion_time").asUint(),
              r.stats.completionTime());
    EXPECT_DOUBLE_EQ(parsed.at("energy_total").asDouble(),
                     r.energyTotal);
    EXPECT_DOUBLE_EQ(s.at("energy").at("total").asDouble(),
                     r.stats.energy.total());
    EXPECT_EQ(parsed.at("functional_errors").asUint(),
              r.functionalErrors);
    EXPECT_EQ(s.at("latency").at("total").asUint(),
              r.stats.totalLatency().total());
    EXPECT_EQ(s.at("misses").at("total").asUint(),
              r.stats.totalMisses().total());
    std::uint64_t l1d_loads = 0;
    for (const auto &c : r.stats.perCore)
        l1d_loads += c.l1d.loads;
    EXPECT_EQ(s.at("l1d").at("loads").asUint(), l1d_loads);
    EXPECT_EQ(s.at("protocol").at("remote_reads").asUint(),
              r.stats.protocol.remoteReads);
    EXPECT_EQ(s.at("eviction_util").at("total").asUint(),
              r.stats.evictionUtil.total());
}

// ---------------------------------------------------------------------------
// Sweep runner: parallel == serial (determinism guard)
// ---------------------------------------------------------------------------

TEST(Runner, ParallelSweepBitIdenticalToSerial)
{
    std::vector<Job> jobs;
    for (const char *bench : {"matmul", "streamcluster"}) {
        SystemConfig adaptive = smallConfig();
        SystemConfig baseline = smallConfig();
        baseline.classifierKind = ClassifierKind::AlwaysPrivate;
        baseline.pct = 1;
        jobs.push_back({bench, adaptive, std::string(bench) + " a"});
        jobs.push_back({bench, baseline, std::string(bench) + " b"});
    }

    SweepOptions serial;
    serial.jobs = 1;
    serial.opScale = kTinyScale;
    serial.progress = false;
    SweepOptions parallel = serial;
    parallel.jobs = 2;

    const auto rs = runSweep(jobs, serial);
    const auto rp = runSweep(jobs, parallel);
    ASSERT_EQ(rs.size(), jobs.size());
    ASSERT_EQ(rp.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(rs[i].job.label, jobs[i].label);
        EXPECT_EQ(rp[i].job.label, jobs[i].label);
        EXPECT_GT(rs[i].result.completionTime, 0u);
        // Full-stats comparison via the canonical serialization:
        // doubles print shortest-round-trip, so equal text means
        // bit-identical values.
        EXPECT_EQ(toJson(rp[i].result).dump(0),
                  toJson(rs[i].result).dump(0))
            << jobs[i].label;
    }
}

// ---------------------------------------------------------------------------
// Throughput mode: --repeat determinism
// ---------------------------------------------------------------------------

TEST(Runner, RepeatedJobsProduceIdenticalStats)
{
    std::vector<Job> jobs;
    jobs.push_back({"matmul", smallConfig(), "repeat probe"});

    SweepOptions once;
    once.jobs = 1;
    once.opScale = kTinyScale;
    once.progress = false;
    SweepOptions thrice = once;
    thrice.repeat = 3;

    const auto r1 = runSweep(jobs, once);
    const auto r3 = runSweep(jobs, thrice);
    ASSERT_EQ(r1.size(), 1u);
    ASSERT_EQ(r3.size(), 1u);

    // Simulated results are bit-identical across repeats; only the
    // wall-clock bookkeeping differs.
    EXPECT_EQ(toJson(r3[0].result).dump(0), toJson(r1[0].result).dump(0));
    EXPECT_EQ(r1[0].repeats, 1u);
    EXPECT_EQ(r3[0].repeats, 3u);
    EXPECT_GT(r3[0].result.simOps, 0u);
    EXPECT_GE(r3[0].wallSeconds, 0.0);
}

// ---------------------------------------------------------------------------
// Sink: document schema + file emission
// ---------------------------------------------------------------------------

TEST(Sink, DocumentSchemaAndFileEmission)
{
    const Experiment *exp = &builtin("table1");
    SweepOptions opts;
    opts.jobs = 1;
    opts.opScale = kTinyScale;
    opts.progress = false;

    std::ostringstream text;
    const ExperimentOutcome outcome = runExperiment(*exp, opts, text);
    EXPECT_NE(text.str().find("Table 1: Architectural parameters"),
              std::string::npos);

    const Json doc = documentFor(outcome);
    EXPECT_EQ(doc.at("schema_version").asInt(),
              kBenchJsonSchemaVersion);
    EXPECT_EQ(doc.at("experiment").asString(), "table1");
    EXPECT_DOUBLE_EQ(doc.at("op_scale").asDouble(), kTinyScale);
    EXPECT_EQ(doc.at("jobs").asUint(), doc.at("runs").size());
    EXPECT_TRUE(doc.at("figure").isObject());
    EXPECT_GE(doc.at("wall_seconds").asDouble(), 0.0);

    namespace fs = std::filesystem;
    const std::string dir = "test_harness_json_out";
    writeJsonFile(dir, exp->name, doc);
    const fs::path path = fs::path(dir) / "BENCH_table1.json";
    ASSERT_TRUE(fs::exists(path));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string err;
    const Json back = Json::parse(buf.str(), &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(back, doc);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Report digests over fabricated sweeps
// ---------------------------------------------------------------------------

namespace {

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 14695981039346656037ull)
{
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** A plausible result whose every number is drawn from @p rng. */
RunResult
fabricatedResult(Rng &rng)
{
    RunResult r;
    const auto count = [&rng](std::uint64_t bound) {
        return rng.below(bound);
    };
    SystemStats &s = r.stats;
    s.perCore.resize(2);
    for (auto &c : s.perCore) {
        CoreStats::forEachField(
            [&](const char *, auto m) { c.*m = count(100000) + 1; });
        LatencyBreakdown::forEachField(
            [&](const char *, auto m) { c.latency.*m = count(500000); });
        for (auto &n : c.misses.counts)
            n = count(5000);
        CacheStats::forEachField([&](const char *, auto m) {
            c.l1i.*m = count(100000);
            c.l1d.*m = count(100000);
        });
    }
    CacheStats::forEachField(
        [&](const char *, auto m) { s.l2.*m = count(100000); });
    NetworkStats::forEachField(
        [&](const char *, auto m) { s.network.*m = count(1000000); });
    ProtocolStats::forEachField(
        [&](const char *, auto m) { s.protocol.*m = count(10000); });
    FaultStats::forEachField(
        [&](const char *, auto m) { s.faults.*m = count(3); });
    s.faults.silentCorruptions = count(8) == 0 ? 1 : 0;
    EnergyBreakdown::forEachField([&](const char *, auto m) {
        s.energy.*m = 1e3 + rng.uniform() * 1e6;
    });
    for (auto &n : s.evictionUtil.counts)
        n = count(1000);
    for (auto &n : s.invalidationUtil.counts)
        n = count(1000);
    r.completionTime = count(1000000) + 1;
    r.energyTotal = s.energy.total();
    r.functionalErrors = count(8) == 0 ? 1 : 0;
    r.verifyViolations = count(8) == 0 ? 1 : 0;
    r.simOps = count(10000000);
    return r;
}

/**
 * One fabricated result per job of @p exp, seeded by the run label so
 * the data follow a run wherever the grid puts it; about one `faults`
 * run in five is marked failed, the way the runner records a RunAbort.
 */
std::vector<JobResult>
fabricatedSweep(const Experiment &exp)
{
    std::vector<JobResult> out;
    for (const Job &job : exp.jobs()) {
        Rng rng(fnv1a(job.label));
        JobResult jr;
        jr.job = job;
        jr.result = fabricatedResult(rng);
        if (exp.name == "faults" && rng.below(5) == 0) {
            jr.failed = true;
            jr.failReason = "fabricated: abort";
            jr.result = RunResult{};
        }
        out.push_back(std::move(jr));
    }
    return out;
}

/** A report's text and its figure JSON as the sink writes it. */
struct ReportOutput
{
    std::string text;
    std::string figure;
};

ReportOutput
reportOutput(const Experiment &exp, const std::vector<JobResult> &results)
{
    std::ostringstream text;
    const Json fig = exp.report(Sweep{exp, results, 0.02}, text);
    return {text.str(), fig.dump(2)};
}

/** @p exp's fabricated sweep with the run labeled @p label failed. */
std::vector<JobResult>
sweepWithFailedRun(const Experiment &exp, const std::string &label)
{
    std::vector<JobResult> results = fabricatedSweep(exp);
    std::size_t marked = 0;
    for (auto &jr : results)
        if (jr.job.label == label) {
            jr.failed = true;
            jr.failReason = "timeout: fabricated";
            jr.result = RunResult{};
            ++marked;
        }
    EXPECT_EQ(marked, 1u) << label;
    return results;
}

/** The table rows of @p text whose first cell is @p first. */
std::vector<std::string>
rowsOf(const std::string &text, const std::string &first)
{
    std::vector<std::string> rows;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        if (line.rfind(first + " ", 0) == 0)
            rows.push_back(line);
    return rows;
}

/** Occurrences of the cell "nan" in a table row. */
std::size_t
nanCells(const std::string &row)
{
    std::istringstream in(row);
    std::size_t n = 0;
    for (std::string cell; in >> cell;)
        n += cell == "nan";
    return n;
}

/** @p figure (a dumped figure block) parsed back. */
Json
parsed(const std::string &figure)
{
    std::string err;
    const Json j = Json::parse(figure, &err);
    EXPECT_TRUE(err.empty()) << err;
    return j;
}

} // namespace

TEST(Reports, DigestsOfFabricatedSweepsArePinned)
{
    // Every report over one fabricated result per run. A change to a
    // grid, a label, a normalization or a format changes the digest.
    const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
        {"fig01", 0xd34f6e439a119c2aull},
        {"fig02", 0xd6bffe294a198f44ull},
        {"fig08", 0x0fdeb1d4071123edull},
        {"fig09", 0x94e319bb4f0439a6ull},
        {"fig10", 0xe17126fe91c75300ull},
        {"fig11", 0xb7075ad8b6286d64ull},
        {"fig12", 0x1f9453be4e5d89e7ull},
        {"fig13", 0x86a54c7478f16ff3ull},
        {"fig14", 0x74bbb4e4a6aaa73aull},
        {"table1", 0x2dded2c30389a198ull},
        {"table2", 0x1f164748191a2c86ull},
        {"ablation", 0xfbfaad8f9dcad588ull},
        {"ackwise", 0xf5456612b3790ca7ull},
        {"scaling", 0x372be3b0450c2cbaull},
        {"network", 0xb73d056ad6242c3cull},
        {"litmus", 0xeb96c0b6c8c4b791ull},
        {"faults", 0x2f402beda646463full},
    };
    std::ostringstream actual;
    for (const auto &exp : experiments()) {
        const ReportOutput out = reportOutput(exp, fabricatedSweep(exp));
        char buf[80];
        std::snprintf(buf, sizeof buf, "        {\"%s\", 0x%016llxull},\n",
                      exp.name.c_str(),
                      static_cast<unsigned long long>(
                          fnv1a(out.text + out.figure)));
        actual << buf;
    }
    std::ostringstream expected;
    for (const auto &[name, digest] : pinned) {
        char buf[80];
        std::snprintf(buf, sizeof buf, "        {\"%s\", 0x%016llxull},\n",
                      name.c_str(),
                      static_cast<unsigned long long>(digest));
        expected << buf;
    }
    EXPECT_EQ(actual.str(), expected.str());
}

TEST(Reports, FailedRunReadsAsNanInFig14)
{
    const Experiment &exp = builtin("fig14");
    const ReportOutput ok = reportOutput(exp, fabricatedSweep(exp));
    const ReportOutput out =
        reportOutput(exp, sweepWithFailedRun(exp, "fig14 1way radix"));
    ASSERT_EQ(rowsOf(out.text, "radix").size(), 1u);
    EXPECT_EQ(nanCells(rowsOf(out.text, "radix")[0]), 2u);
    EXPECT_EQ(nanCells(rowsOf(out.text, "GEOMEAN")[0]), 2u);
    // The other benches keep their numbers.
    EXPECT_EQ(rowsOf(out.text, "lu-nc"), rowsOf(ok.text, "lu-nc"));
    EXPECT_EQ(out.text.find("-nan"), std::string::npos);
    const Json fig = parsed(out.figure);
    EXPECT_TRUE(fig.at("geomean_time_ratio").isNull());
    EXPECT_TRUE(fig.at("geomean_energy_ratio").isNull());
    EXPECT_TRUE(parsed(ok.figure).at("geomean_time_ratio").isNumber());
}

TEST(Reports, FailedReferenceRunReadsAsNanInFig08)
{
    // The PCT=1 run is every radix row's reference.
    const Experiment &exp = builtin("fig08");
    const ReportOutput ok = reportOutput(exp, fabricatedSweep(exp));
    const ReportOutput out =
        reportOutput(exp, sweepWithFailedRun(exp, "fig8 radix PCT=1"));
    const auto radix = rowsOf(out.text, "radix");
    ASSERT_EQ(radix.size(), exp.points.size());
    for (const auto &row : radix)
        EXPECT_EQ(nanCells(row), 7u) << row;
    for (const auto &row : rowsOf(out.text, "AVERAGE"))
        EXPECT_EQ(nanCells(row), 7u) << row;
    EXPECT_EQ(rowsOf(out.text, "barnes"), rowsOf(ok.text, "barnes"));
    EXPECT_EQ(out.text.find("-nan"), std::string::npos);
    const Json fig = parsed(out.figure);
    for (const auto &avg : fig.at("normalized_averages").elements())
        for (const auto &c : avg.at("components").elements())
            EXPECT_TRUE(c.isNull());
}

TEST(Reports, LitmusGivesNoVerdictWhenARunFailed)
{
    const Experiment &exp = builtin("litmus");
    const ReportOutput ok = reportOutput(exp, fabricatedSweep(exp));
    ASSERT_NE(ok.text.find("All litmus runs functionally clean"),
              std::string::npos);
    const ReportOutput out =
        reportOutput(exp, sweepWithFailedRun(exp, "lacc litmus-prodcons"));
    const auto lacc = rowsOf(out.text, "lacc");
    ASSERT_FALSE(lacc.empty());
    EXPECT_NE(lacc[0].find("litmus-prodcons"), std::string::npos);
    EXPECT_EQ(nanCells(lacc[0]), 3u);
    EXPECT_EQ(out.text.find("functionally clean"), std::string::npos);
    EXPECT_EQ(out.text.find("FUNCTIONAL ERRORS"), std::string::npos);
    EXPECT_NE(out.text.find("NOT EVERY LITMUS RUN COMPLETED"),
              std::string::npos);
    EXPECT_TRUE(parsed(out.figure).at("functionalErrors").isNull());
}

TEST(Sink, SweepDocumentRecordsRuns)
{
    const Experiment *exp = &builtin("fig14");

    // Trim to a 2-run slice of the real grid so the test stays fast:
    // run the first benchmark pair through the real report path is
    // unnecessary here; we only validate run-record assembly.
    ExperimentOutcome outcome;
    outcome.exp = exp;
    outcome.opScale = kTinyScale;
    const auto jobs = exp->jobs();
    ASSERT_GE(jobs.size(), 2u);
    SweepOptions opts;
    opts.jobs = 2;
    opts.opScale = kTinyScale;
    opts.progress = false;
    outcome.results =
        runSweep({jobs[0], jobs[1]}, opts);
    outcome.figure = Json::object();

    const Json doc = documentFor(outcome);
    ASSERT_EQ(doc.at("runs").size(), 2u);
    const Json &run = doc.at("runs").at(std::size_t{0});
    EXPECT_EQ(run.at("bench").asString(), jobs[0].bench);
    EXPECT_EQ(run.at("label").asString(), jobs[0].label);
    EXPECT_EQ(run.at("config").at("num_cores").asUint(), 64u);
    EXPECT_GT(run.at("result").at("completion_time").asUint(), 0u);
    EXPECT_GE(run.at("wall_seconds").asDouble(), 0.0);

    // Schema-v2 throughput fields: per-run trio consistent with the
    // run's result payload, top level aggregates over runs.
    EXPECT_EQ(doc.at("schema_version").asInt(), 3);
    EXPECT_EQ(doc.at("repeat").asUint(), 1u);
    EXPECT_EQ(run.at("sim_ops").asUint(),
              run.at("result").at("sim_ops").asUint());
    EXPECT_GT(run.at("sim_ops").asUint(), 0u);
    EXPECT_DOUBLE_EQ(run.at("wall_ms").asDouble(),
                     run.at("wall_seconds").asDouble() * 1e3);
    EXPECT_GE(run.at("ops_per_sec").asDouble(), 0.0);
    std::uint64_t total_ops = 0;
    for (const auto &rr : doc.at("runs").elements())
        total_ops += rr.at("sim_ops").asUint();
    EXPECT_EQ(doc.at("sim_ops").asUint(), total_ops);
    EXPECT_GE(doc.at("ops_per_sec").asDouble(), 0.0);
}
