#include "harness/sink.hh"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "sim/log.hh"
#include "system/report.hh"

namespace lacc::harness {

namespace {

/** Banner block above every experiment (shape of the old binaries). */
void
banner(std::ostream &os, const Experiment &exp)
{
    os << "=====================================================\n"
       << exp.title << "\n" << exp.subtitle << "\n"
       << "=====================================================\n";
}

} // namespace

Json
documentFor(const ExperimentOutcome &outcome)
{
    // Throughput aggregates. sim_ops keeps ONE unit at both document
    // levels: ops of a single pass over the sweep (top level == sum of
    // the per-run sim_ops, at any --repeat). ops_per_sec accounts for
    // the repeats explicitly against the summed simulation wall
    // (report formatting excluded).
    std::uint64_t total_ops = 0;
    double sim_wall = 0.0;
    for (const auto &jr : outcome.results) {
        total_ops += jr.result.simOps;
        sim_wall += jr.wallSeconds;
    }

    Json doc = Json::object();
    doc["schema_version"] = kBenchJsonSchemaVersion;
    doc["experiment"] = outcome.exp->name;
    doc["title"] = outcome.exp->title;
    doc["description"] = outcome.exp->description;
    doc["op_scale"] = outcome.opScale;
    doc["repeat"] = static_cast<std::uint64_t>(outcome.repeat);
    doc["jobs"] =
        static_cast<std::uint64_t>(outcome.results.size());
    doc["wall_seconds"] = outcome.wallSeconds;
    doc["sim_ops"] = total_ops;
    doc["wall_ms"] = outcome.wallSeconds * 1e3;
    doc["ops_per_sec"] =
        sim_wall > 0.0
            ? static_cast<double>(total_ops) * outcome.repeat / sim_wall
            : 0.0;
    doc["figure"] = outcome.figure;

    Json runs = Json::array();
    for (const auto &jr : outcome.results) {
        Json run = Json::object();
        run["label"] = jr.job.label;
        run["bench"] = jr.job.bench;
        run["wall_seconds"] = jr.wallSeconds;
        run["sim_ops"] = jr.result.simOps;
        run["wall_ms"] = jr.wallSeconds * 1e3;
        run["ops_per_sec"] = jr.opsPerSecond();
        // Schema v3: aborted runs (watchdog timeout, unrecoverable
        // injected fault) keep their slot with a default result so
        // grid order survives; checkers skip their per-run checks.
        run["status"] = jr.failed ? "failed" : "ok";
        if (jr.failed)
            run["fail_reason"] = jr.failReason;
        run["config"] = toJson(jr.job.cfg);
        run["result"] = toJson(jr.result);
        runs.push(std::move(run));
    }
    doc["runs"] = std::move(runs);
    return doc;
}

void
writeJsonFile(const std::string &dir, const std::string &name,
              const Json &doc)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        fatal("cannot create JSON directory '%s': %s", dir.c_str(),
              ec.message().c_str());
    const fs::path path = fs::path(dir) / ("BENCH_" + name + ".json");
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '%s' for writing", path.c_str());
    doc.write(os, 2);
    os << '\n';
    os.flush();
    if (!os)
        fatal("short write to '%s'", path.c_str());
}

bool
validArtifactExists(const std::string &dir, const Experiment &exp,
                    const SweepOptions &opts)
{
    namespace fs = std::filesystem;
    const fs::path path =
        fs::path(dir) / ("BENCH_" + exp.name + ".json");
    std::ifstream is(path);
    if (!is)
        return false;
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    if (!is.good() && !is.eof())
        return false;

    std::string error;
    const Json doc = Json::parse(text, &error);
    if (!error.empty() || !doc.isObject())
        return false;
    const Json *schema = doc.find("schema_version");
    const Json *name = doc.find("experiment");
    const Json *scale = doc.find("op_scale");
    const Json *runs = doc.find("runs");
    if (schema == nullptr || name == nullptr || scale == nullptr ||
        runs == nullptr || !runs->isArray())
        return false;
    if (*schema != Json(kBenchJsonSchemaVersion) ||
        *name != Json(exp.name) || *scale != Json(resolveOpScale(opts)))
        return false;
    // The artifact must hold this very sweep: one run record per job
    // (a truncated runs array fails here), each naming the job's
    // label, bench and configuration after the CLI overrides.
    const std::vector<Job> jobs = exp.jobs();
    const std::vector<Json> &records = runs->elements();
    if (records.size() != jobs.size())
        return false;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SystemConfig cfg = jobs[i].cfg;
        opts.overrides.apply(cfg);
        const Json *label = records[i].find("label");
        const Json *bench = records[i].find("bench");
        const Json *config = records[i].find("config");
        if (label == nullptr || bench == nullptr || config == nullptr ||
            *label != Json(jobs[i].label) ||
            *bench != Json(jobs[i].bench) || *config != toJson(cfg))
            return false;
    }
    return true;
}

ExperimentOutcome
runExperiment(const Experiment &exp, const SweepOptions &opts,
              std::ostream &text_out)
{
    const auto start = std::chrono::steady_clock::now();
    ExperimentOutcome outcome;
    outcome.exp = &exp;
    outcome.opScale = resolveOpScale(opts);
    outcome.repeat = opts.effectiveRepeat();
    banner(text_out, exp);
    outcome.results = runSweep(exp.jobs(), opts);
    outcome.figure =
        exp.report(Sweep{exp, outcome.results, outcome.opScale}, text_out);
    outcome.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return outcome;
}

} // namespace lacc::harness
