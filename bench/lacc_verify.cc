/**
 * @file
 * Verification CLI over src/verify/: the seeded litmus fuzzer and the
 * exhaustive bounded-state enumerator, sharing the protocol-invariant
 * library. Command-line conventions mirror lacc_bench: strict
 * full-token numeric parsing (a partial or garbage value exits 2 and
 * prints the valid range), factory-name validation up front, exit 0
 * only when verification is clean.
 *
 * Usage:
 *   lacc_verify --fuzz [--seed N] [--iters N] [--cores N] [--ops N]
 *               [--protocol NAME] [--network NAME] [--faults NAME]
 *               [--fault-rate X] [--fault-seed N] [--repro-dir DIR]
 *   lacc_verify --enumerate [--cores N] [--lines N] [--max-states N]
 *               [--protocol NAME] [--network NAME]
 *   lacc_verify --list-protocols | --list-networks
 *
 * Exit status: 0 clean, 1 violation found (or state cap hit before
 * the space was exhausted), 2 usage error.
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fault/plan.hh"
#include "net/factory.hh"
#include "protocol/protocol.hh"
#include "sim/log.hh"
#include "sim/overrides.hh"
#include "verify/enumerate.hh"
#include "verify/fuzz.hh"

using namespace lacc;
using namespace lacc::verify;

namespace {

void
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: lacc_verify --fuzz | --enumerate [options]\n"
        "\n"
        "Protocol verification: a seeded randomized litmus fuzzer and"
        " an exhaustive\nbounded-state enumerator, both checking every"
        " protocol invariant\n(src/verify/invariants.hh) against the"
        " sequentially-consistent reference\nmemory.\n"
        "\n"
        "modes (exactly one):\n"
        "  --fuzz            random sharing-heavy traces, shrunk on"
        " failure\n"
        "  --enumerate       BFS over every reachable protocol state\n"
        "\n"
        "fuzz options:\n"
        "  --seed N          campaign seed (default 1)\n"
        "  --iters N         traces to generate, in [1, 1000000000]"
        " (default 25)\n"
        "  --cores N         cores per trace, in [2, 16] (default 4)\n"
        "  --ops N           ops per core, in [1, 4096] (default 24)\n"
        "  --repro-dir DIR   write minimized repro traces into DIR\n"
        "  --faults NAME     fuzz under a named fault plan (see\n"
        "                    lacc_bench --list-faults); a RunAbort is\n"
        "                    a *detected* fault, only silent\n"
        "                    corruption fails the campaign. Shrinking\n"
        "                    co-minimizes the fault schedule with the\n"
        "                    trace.\n"
        "  --fault-rate X    base per-event fault probability in"
        " [0, 1]\n"
        "  --fault-seed N    fault-schedule seed\n"
        "\n"
        "enumerate options:\n"
        "  --cores N         cores, in [2, 4] (default 2)\n"
        "  --lines N         cache lines, in [1, 2] (default 2)\n"
        "  --max-states N    state cap, in [1, 100000000]"
        " (default 2000000)\n"
        "\n"
        "common options:\n"
        "  --protocol NAME   one protocol (default: fuzz = all,"
        " enumerate = lacc)\n"
        "  --network NAME    one topology (default: fuzz = mesh+xbar,"
        " enumerate = mesh)\n"
        "  --list-protocols  list coherence-protocol names and exit\n"
        "  --list-networks   list interconnect-topology names and"
        " exit\n"
        "  --help            this message\n");
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    bool fuzz = false, enumer = false;
    FuzzOptions fo;
    EnumOptions eo;
    ConfigOverrides ov;

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
        } else if (arg == "--fuzz") {
            fuzz = true;
        } else if (arg == "--enumerate") {
            enumer = true;
        } else if (arg == "--list-protocols") {
            for (const auto &name : protocolNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (arg == "--list-networks") {
            for (const auto &name : networkNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (arg == "--seed") {
            fo.seed = parseU64OrExit("--seed", value("--seed"), 0,
                                     UINT64_MAX / 2);
        } else if (arg == "--iters") {
            fo.iters = static_cast<std::uint32_t>(parseU64OrExit(
                "--iters", value("--iters"), 1, 1000000000));
        } else if (arg == "--cores") {
            // Range-checked per mode below (the mode flag may come
            // after); parse loosely here.
            const std::uint64_t v =
                parseU64OrExit("--cores", value("--cores"), 1, 16);
            fo.cores = static_cast<std::uint32_t>(v);
            eo.cores = static_cast<std::uint32_t>(v);
        } else if (arg == "--ops") {
            fo.opsPerCore = static_cast<std::uint32_t>(
                parseU64OrExit("--ops", value("--ops"), 1, 4096));
        } else if (arg == "--lines") {
            eo.lines = static_cast<std::uint32_t>(
                parseU64OrExit("--lines", value("--lines"), 1, 2));
        } else if (arg == "--max-states") {
            eo.maxStates = parseU64OrExit(
                "--max-states", value("--max-states"), 1, 100000000);
        } else if (arg == "--protocol") {
            ov.protocol = value("--protocol");
        } else if (arg == "--network") {
            ov.network = value("--network");
        } else if (arg == "--faults") {
            ov.faults = value("--faults");
        } else if (arg == "--fault-rate") {
            // Range-checked with the other overrides below.
            char *end = nullptr;
            const char *s = value("--fault-rate");
            ov.faultRate = std::strtod(s, &end);
            if (end == s || *end != '\0') {
                std::fprintf(stderr,
                             "--fault-rate wants a number, got '%s'\n",
                             s);
                return 2;
            }
        } else if (arg == "--fault-seed") {
            ov.faultSeed = parseU64OrExit(
                "--fault-seed", value("--fault-seed"), 0, UINT64_MAX / 2);
        } else if (arg == "--repro-dir") {
            fo.reproDir = value("--repro-dir");
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(stderr);
            return 2;
        }
    }

    if (fuzz == enumer) {
        std::fprintf(stderr,
                     "exactly one of --fuzz / --enumerate required\n");
        usage(stderr);
        return 2;
    }

    // One validation point for the overrides (shared with lacc_bench
    // via sim/overrides.hh).
    if (!ov.validateOrReport())
        return 2;

    if (fuzz) {
        if (fo.cores < 2 || fo.cores > 16) {
            std::fprintf(stderr,
                         "--fuzz --cores wants [2, 16], got %u\n",
                         fo.cores);
            return 2;
        }
        fo.protocol = ov.protocol;
        fo.network = ov.network;
        fo.faults = ov.faults;
        fo.faultRate = ov.faultRate.value_or(-1.0);
        fo.faultSeed = ov.faultSeed;
        const FuzzResult res = runFuzz(fo);
        std::printf("fuzz: seed %" PRIu64 ", %u traces, %" PRIu64
                    " runs, %" PRIu64 " failure(s)\n",
                    fo.seed, fo.iters, res.runs, res.failures);
        if (res.failures == 0)
            return 0;
        std::printf("first failure (minimized):\n%s\n",
                    res.firstReport.c_str());
        for (const auto &p : res.reproPaths)
            std::printf("repro written: %s\n", p.c_str());
        return 1;
    }

    if (eo.cores < 2 || eo.cores > 4) {
        std::fprintf(stderr,
                     "--enumerate --cores wants [2, 4], got %u\n",
                     eo.cores);
        return 2;
    }
    if (!ov.faults.empty() || ov.faultRate || ov.faultSeed) {
        std::fprintf(stderr,
                     "--faults/--fault-rate/--fault-seed apply to"
                     " --fuzz only (the enumerator explores the"
                     " fault-free state space)\n");
        return 2;
    }
    if (!ov.protocol.empty())
        eo.protocol = ov.protocol;
    if (!ov.network.empty())
        eo.network = ov.network;
    const auto t0 = std::chrono::steady_clock::now();
    const EnumResult res = enumerate(eo);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    std::printf("enumerate: %s x %s, %u cores, %u line(s): %" PRIu64
                " states, %" PRIu64 " transitions, %s, %.2f s, %.0f"
                " states/s\n",
                eo.protocol.c_str(), eo.network.c_str(), eo.cores,
                eo.lines, res.states, res.transitions,
                res.exhaustive ? "exhaustive"
                               : (res.violations.empty()
                                      ? "STATE CAP REACHED"
                                      : "VIOLATION"),
                secs, secs > 0.0 ? res.states / secs : 0.0);
    if (!res.violations.empty()) {
        for (const auto &v : res.violations)
            std::printf("violation: %s\n", v.c_str());
        std::printf("counterexample path (from reset):\n%s",
                    res.counterexample.c_str());
        return 1;
    }
    return res.exhaustive ? 0 : 1;
}
