/**
 * @file
 * Unified benchmark CLI: runs any subset of the registered paper
 * figure/table experiments in one invocation, sharding simulation
 * runs across worker threads and optionally emitting machine-readable
 * BENCH_<experiment>.json result files (docs/BENCHMARKS.md).
 *
 * Usage:
 *   lacc_bench --list | --list-protocols | --list-networks |
 *              --list-faults
 *   lacc_bench [--filter SUBSTR] [--jobs N] [--scale X] [--repeat N]
 *              [--protocol NAME] [--network NAME] [--faults NAME]
 *              [--fault-rate X] [--fault-seed N] [--timeout-ms X]
 *              [--resume] [--json-dir DIR] [--quiet]
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "fault/plan.hh"
#include "harness/registry.hh"
#include "harness/runner.hh"
#include "harness/sink.hh"
#include "net/factory.hh"
#include "protocol/protocol.hh"
#include "sim/log.hh"
#include "sim/overrides.hh"

using namespace lacc;
using namespace lacc::harness;

namespace {

void
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: lacc_bench [options]\n"
        "\n"
        "Runs the registered paper figure/table experiments and"
        " prints each one's\ntext table; see docs/BENCHMARKS.md.\n"
        "\n"
        "options:\n"
        "  --list            list experiments and exit\n"
        "  --list-protocols  list coherence-protocol names and exit\n"
        "  --list-networks   list interconnect-topology names and"
        " exit\n"
        "  --list-faults     list fault-plan names and exit\n"
        "  --filter SUBSTR   only experiments whose name contains"
        " SUBSTR\n"
        "  --jobs N          worker threads for the sweeps"
        " (default 1;\n"
        "                    capped at the machine's hardware"
        " threads)\n"
        "  --scale X         op-count scale; overrides LACC_SCALE\n"
        "  --repeat N        simulate every job N times (throughput\n"
        "                    mode: stats are identical across repeats,\n"
        "                    wall-clock/ops_per_sec fields accumulate)\n"
        "  --protocol NAME   force every run onto a named coherence\n"
        "                    protocol (see --list-protocols)\n"
        "  --network NAME    force every run onto a named interconnect\n"
        "                    topology (see --list-networks)\n"
        "  --faults NAME     force every run onto a named fault plan\n"
        "                    (see --list-faults)\n"
        "  --fault-rate X    base per-event fault probability in"
        " [0, 1]\n"
        "  --fault-seed N    fault-schedule seed in [0, 2^63-1]\n"
        "                    (independent of the workload seed; same\n"
        "                    seed => identical fault schedule)\n"
        "  --timeout-ms X    per-run wall-clock watchdog; an expired\n"
        "                    run is recorded as \"failed\", not fatal\n"
        "  --resume          skip experiments whose BENCH_*.json in\n"
        "                    --json-dir already holds this sweep\n"
        "                    (same scale, runs and overrides); other,\n"
        "                    corrupt or truncated files are re-run\n"
        "  --json-dir DIR    write BENCH_<experiment>.json into DIR\n"
        "  --quiet           suppress per-run progress on stderr\n"
        "  --help            this message\n");
}

bool
parsePositiveDouble(const char *s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s, &end);
    return end != s && *end == '\0' && std::isfinite(out) && out > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    bool list = false;
    bool resume = false;
    std::string filter;
    std::string jsonDir;
    SweepOptions opts;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *name) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", name);
                usage(stderr);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--list-protocols") {
            for (const auto &name : protocolNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (arg == "--list-networks") {
            for (const auto &name : networkNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (arg == "--list-faults") {
            for (const auto &name : faultNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (arg == "--filter") {
            filter = value("--filter");
        } else if (arg == "--jobs") {
            opts.jobs = static_cast<unsigned>(
                parseU64OrExit("--jobs", value("--jobs"), 1, 1024));
        } else if (arg == "--scale") {
            if (!parsePositiveDouble(value("--scale"), opts.opScale)) {
                std::fprintf(stderr,
                             "--scale wants a positive number\n");
                return 2;
            }
        } else if (arg == "--repeat") {
            opts.repeat = static_cast<unsigned>(
                parseU64OrExit("--repeat", value("--repeat"), 1, 1024));
        } else if (arg == "--protocol") {
            opts.overrides.protocol = value("--protocol");
        } else if (arg == "--network") {
            opts.overrides.network = value("--network");
        } else if (arg == "--faults") {
            opts.overrides.faults = value("--faults");
        } else if (arg == "--fault-rate") {
            // Range-checked with the other overrides below.
            char *end = nullptr;
            const char *s = value("--fault-rate");
            opts.overrides.faultRate = std::strtod(s, &end);
            if (end == s || *end != '\0') {
                std::fprintf(stderr, "--fault-rate wants a number\n");
                return 2;
            }
        } else if (arg == "--fault-seed") {
            opts.overrides.faultSeed = parseU64OrExit(
                "--fault-seed", value("--fault-seed"), 0, UINT64_MAX / 2);
        } else if (arg == "--timeout-ms") {
            if (!parsePositiveDouble(value("--timeout-ms"),
                                     opts.timeoutMs)) {
                std::fprintf(stderr,
                             "--timeout-ms wants a positive number\n");
                return 2;
            }
        } else if (arg == "--resume") {
            resume = true;
        } else if (arg == "--json-dir") {
            jsonDir = value("--json-dir");
        } else if (arg == "--quiet") {
            opts.progress = false;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(stderr);
            return 2;
        }
    }

    // One validation point for every override: a typo or an
    // out-of-range rate fails here (names with the valid keys on one
    // line) instead of dying mid-sweep in a worker thread.
    if (!opts.overrides.validateOrReport())
        return 2;

    const auto selected = match(filter);
    if (selected.empty()) {
        std::fprintf(stderr, "no experiment matches filter '%s'\n",
                     filter.c_str());
        std::fprintf(stderr, "known experiments:\n");
        for (const auto &e : experiments())
            std::fprintf(stderr, "  %s\n", e.name.c_str());
        return 1;
    }

    if (list) {
        for (const auto *exp : selected) {
            const std::size_t n = exp->jobs().size();
            std::printf("%-10s %4zu runs  %s\n", exp->name.c_str(), n,
                        exp->description.c_str());
        }
        return 0;
    }

    if (resume && jsonDir.empty()) {
        std::fprintf(stderr, "--resume requires --json-dir\n");
        return 2;
    }

    double totalWall = 0.0;
    std::size_t totalRuns = 0;
    std::size_t skipped = 0;
    for (const auto *exp : selected) {
        if (resume && validArtifactExists(jsonDir, *exp, opts)) {
            ++skipped;
            if (opts.progress)
                std::fprintf(stderr,
                             "[bench] === %s === skipped (complete"
                             " artifact in %s)\n",
                             exp->name.c_str(), jsonDir.c_str());
            continue;
        }
        if (opts.progress)
            std::fprintf(stderr, "[bench] === %s ===\n",
                         exp->name.c_str());
        const ExperimentOutcome outcome =
            runExperiment(*exp, opts, std::cout);
        totalWall += outcome.wallSeconds;
        totalRuns += outcome.results.size();
        if (!jsonDir.empty())
            writeJsonFile(jsonDir, exp->name, documentFor(outcome));
    }
    if (opts.progress) {
        std::fprintf(stderr,
                     "[bench] done: %zu experiments, %zu runs, %.1fs\n",
                     selected.size() - skipped, totalRuns, totalWall);
        if (skipped > 0)
            std::fprintf(stderr,
                         "[bench] resume: skipped %zu experiments with"
                         " complete artifacts\n",
                         skipped);
    }
    return 0;
}
