#include "verify/fuzz.hh"

#include <filesystem>
#include <fstream>

#include "fault/plan.hh"
#include "net/network.hh"
#include "protocol/protocol.hh"
#include "sim/abort.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "system/multicore.hh"
#include "verify/invariants.hh"

namespace lacc {
namespace verify {

namespace {

/**
 * The shared-data address pool: a handful of lines chosen so a few
 * dozen random ops already exercise the interesting structure —
 * adjacent lines on one page (false sharing + one R-NUCA record),
 * L1-set conflicts (fuzzConfig's L1s have 8 sets, so +8/+16 lines
 * collide and force evictions), and a second page (private->shared
 * rehoming races). Ifetches draw from the same pool, so
 * dual-L1-I/L1-D holders and instruction-page classification corners
 * are reachable too.
 */
constexpr Addr kPoolBase = Addr{1} << 32;
constexpr Addr kPoolOffsets[] = {
    0, 64, 8 * 64, 16 * 64, 4096, 4096 + 64,
};
constexpr std::size_t kPoolSize =
    sizeof(kPoolOffsets) / sizeof(kPoolOffsets[0]);

Addr
randomAddr(Rng &rng)
{
    const Addr line = kPoolBase + kPoolOffsets[rng.below(kPoolSize)];
    // Bias to word 0: colliding on one word maximizes real
    // write-write and read-write conflicts per trace.
    const Addr word = rng.chance(0.5) ? 0 : rng.below(8);
    return line + word * 8;
}

TraceWorkload
generateTrace(Rng &rng, const FuzzOptions &opt, std::uint32_t iter)
{
    std::vector<std::vector<MemOp>> streams(opt.cores);
    for (auto &ops : streams) {
        while (ops.size() < opt.opsPerCore) {
            const std::uint64_t roll = rng.below(100);
            if (roll < 35) {
                ops.push_back(MemOp::read(randomAddr(rng)));
            } else if (roll < 65) {
                ops.push_back(MemOp::write(randomAddr(rng)));
            } else if (roll < 78) {
                // Line-granular: an ifetch of a mid-line word is no
                // different, and line addresses read better in repros.
                ops.push_back(MemOp::ifetch(
                    kPoolBase + kPoolOffsets[rng.below(kPoolSize)]));
            } else if (roll < 88) {
                ops.push_back(MemOp::compute(
                    1 + static_cast<std::uint32_t>(rng.below(200))));
            } else {
                // Critical section on the single lock: balanced by
                // construction (an unmatched release would fatal()).
                ops.push_back(MemOp::lockAcquire(0));
                const std::uint64_t body = 1 + rng.below(3);
                for (std::uint64_t k = 0; k < body; ++k) {
                    if (rng.chance(0.5))
                        ops.push_back(MemOp::write(randomAddr(rng)));
                    else
                        ops.push_back(MemOp::read(randomAddr(rng)));
                }
                ops.push_back(MemOp::lockRelease(0));
            }
        }
    }
    return TraceWorkload(vfmt("fuzz_s%llu_i%u",
                              static_cast<unsigned long long>(opt.seed),
                              iter),
                         std::move(streams), 1);
}

void
saveTrace(const TraceWorkload &w, const std::string &path,
          const std::vector<std::string> &comments)
{
    std::ofstream f(path);
    for (const auto &c : comments)
        f << "# " << c << "\n";
    w.save(f);
}

const char *
opTag(const MemOp &op)
{
    switch (op.kind) {
      case MemOp::Kind::Read: return "r";
      case MemOp::Kind::Write: return "w";
      case MemOp::Kind::IFetch: return "f";
      case MemOp::Kind::Compute: return "c";
      case MemOp::Kind::Barrier: return "b";
      case MemOp::Kind::LockAcquire: return "a";
      case MemOp::Kind::LockRelease: return "l";
      default: return "?";
    }
}

} // namespace

SystemConfig
fuzzConfig(std::uint32_t cores)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.meshWidth = cores; // one row; any core count works
    cfg.clusterSize = cores;
    cfg.numMemControllers = 1;
    cfg.l1iSizeKB = 1;
    cfg.l1iAssoc = 2; // 8 sets: pool lines +8/+16 collide
    cfg.l1dSizeKB = 1;
    cfg.l1dAssoc = 2;
    cfg.l2SizeKB = 4;
    cfg.l2Assoc = 8;
    cfg.ackwisePointers = 2; // overflow reachable with 3 sharers
    cfg.classifierKind = ClassifierKind::Limited;
    cfg.classifierK = 2;
    cfg.pct = 2; // private/remote transitions within a few touches
    cfg.ratMax = 4;
    cfg.nRatLevels = 2;
    return cfg;
}

std::vector<std::string>
checkTrace(const TraceWorkload &w, const SystemConfig &cfg,
           const std::string &evidence_path)
{
    if (!evidence_path.empty())
        saveTrace(w, evidence_path, {"fuzz candidate (in flight)"});

    std::vector<std::string> out;

    // Full timed run: the real event loop (locks block, per-core
    // clocks interleave by latency), every read checked against the
    // reference memory, full state checked at the end. Under fault
    // injection a RunAbort (retry-budget exhaustion, unrecoverable
    // double-bit) is a *detected* fault, not a coherence violation —
    // the fuzzer hunts silent corruption, so the run counts as clean.
    {
        TraceWorkload copy(w.name(), w.streams(), w.numLocks());
        Multicore m(cfg);
        try {
            m.run(copy);
            for (const auto &v : checkAll(m))
                out.push_back("full-run: " + v);
        } catch (const RunAbort &) {
        }
    }

    // Stepwise replay: a second, different interleaving (round-robin,
    // one op per core per turn), with every invariant checked after
    // every single access — transient corruption that the final state
    // happens to re-absorb is caught here. Lock ops replay as plain
    // writes to the lock line (any interleaving is coherence-legal);
    // compute/barrier ops are timing-only and are skipped.
    {
        Multicore m(cfg);
        const auto &streams = w.streams();
        std::vector<std::size_t> pos(streams.size(), 0);
        std::size_t step = 0;
        bool live = true, stop = false;
        try {
        while (live && !stop) {
            live = false;
            for (std::uint32_t c = 0; c < streams.size() && !stop;
                 ++c) {
                if (pos[c] >= streams[c].size())
                    continue;
                live = true;
                const MemOp &op = streams[c][pos[c]++];
                ++step;
                const CoreId cc = static_cast<CoreId>(c);
                switch (op.kind) {
                  case MemOp::Kind::Read:
                    m.testAccess(cc, op.addr, false);
                    break;
                  case MemOp::Kind::Write:
                    m.testAccess(cc, op.addr, true);
                    break;
                  case MemOp::Kind::IFetch:
                    m.testAccess(cc, op.addr, false, true);
                    break;
                  case MemOp::Kind::LockAcquire:
                  case MemOp::Kind::LockRelease:
                    m.testAccess(cc, w.lockAddr(op.lockId), true);
                    break;
                  default:
                    continue; // no memory access: nothing to check
                }
                for (const auto &v : checkInvariants(m)) {
                    out.push_back(vfmt("step %zu (core %u %s): ", step,
                                       c, opTag(op)) +
                                  v);
                    stop = true;
                }
            }
        }
        if (!stop) {
            for (const auto &v : checkAll(m))
                out.push_back("stepwise-final: " + v);
        }
        } catch (const RunAbort &) {
            // Detected fault mid-replay: honest abort, not silent
            // corruption — same policy as the full timed run above.
        }
    }
    return out;
}

TraceWorkload
shrinkTrace(const TraceWorkload &w, const SystemConfig &cfg,
            const std::string &evidence_path)
{
    std::vector<std::vector<MemOp>> streams = w.streams();

    // Co-minimize the fault schedule with the trace. First the big
    // step: does the violation reproduce fault-free? If so the bug is
    // in the protocol, not the recovery paths — shrink without faults
    // so the repro doesn't depend on a fault seed.
    SystemConfig scfg = cfg;
    if (scfg.faultKind != FaultKind::None) {
        SystemConfig clean = scfg;
        clean.faultKind = FaultKind::None;
        if (!checkTrace(w, clean, evidence_path).empty())
            scfg = clean;
    }

    bool reduced = true;
    while (reduced) {
        reduced = false;
        // Between op-removal passes, halve the fault intensity while
        // the failure persists: the final repro carries the weakest
        // fault schedule that still breaks.
        while (scfg.faultKind != FaultKind::None &&
               scfg.faultRate > 1e-12) {
            SystemConfig half = scfg;
            half.faultRate *= 0.5;
            TraceWorkload t(w.name(), streams, w.numLocks());
            if (checkTrace(t, half, evidence_path).empty())
                break;
            scfg = half;
        }
        for (std::size_t c = 0; c < streams.size() && !reduced; ++c) {
            for (std::size_t i = 0;
                 i < streams[c].size() && !reduced; ++i) {
                const MemOp &op = streams[c][i];
                // Barriers must stay count-matched across cores;
                // removing one would deadlock the candidate run.
                if (op.kind == MemOp::Kind::Barrier)
                    continue;
                auto cand = streams;
                auto &s = cand[c];
                if (op.kind == MemOp::Kind::LockAcquire) {
                    // Co-remove the matching release (nesting-aware).
                    std::size_t depth = 0, j = i + 1;
                    for (; j < s.size(); ++j) {
                        if (s[j].lockId != op.lockId)
                            continue;
                        if (s[j].kind == MemOp::Kind::LockAcquire)
                            ++depth;
                        else if (s[j].kind ==
                                 MemOp::Kind::LockRelease) {
                            if (depth == 0)
                                break;
                            --depth;
                        }
                    }
                    if (j >= s.size())
                        continue; // malformed; leave it alone
                    s.erase(s.begin() + j);
                    s.erase(s.begin() + i);
                } else if (op.kind == MemOp::Kind::LockRelease) {
                    continue; // removed with its acquire
                } else {
                    s.erase(s.begin() + i);
                }
                TraceWorkload t(w.name(), std::move(cand),
                                w.numLocks());
                if (!checkTrace(t, scfg, evidence_path).empty()) {
                    streams = t.streams();
                    reduced = true;
                }
            }
        }
    }
    return TraceWorkload(w.name() + "_min", std::move(streams),
                         w.numLocks());
}

FuzzResult
runFuzz(const FuzzOptions &opt)
{
    FuzzResult res;
    const std::vector<std::string> protocols =
        opt.protocol.empty() ? protocolNames()
                             : std::vector<std::string>{opt.protocol};
    const std::vector<std::string> networks =
        opt.network.empty() ? std::vector<std::string>{"mesh", "xbar"}
                            : std::vector<std::string>{opt.network};

    std::string evidence;
    if (!opt.reproDir.empty()) {
        std::filesystem::create_directories(opt.reproDir);
        evidence = opt.reproDir + "/lacc_fuzz_current.trace";
    }

    Rng rng(opt.seed);
    for (std::uint32_t iter = 0; iter < opt.iters; ++iter) {
        const TraceWorkload trace = generateTrace(rng, opt, iter);
        for (const auto &p : protocols) {
            for (const auto &n : networks) {
                SystemConfig cfg = fuzzConfig(opt.cores);
                applyProtocolName(cfg, p);
                applyNetworkName(cfg, n);
                if (!opt.faults.empty())
                    applyFaultName(cfg, opt.faults);
                if (opt.faultRate >= 0.0)
                    cfg.faultRate = opt.faultRate;
                if (opt.faultSeed)
                    cfg.faultSeed = *opt.faultSeed;
                ++res.runs;
                const auto viol = checkTrace(trace, cfg, evidence);
                if (viol.empty())
                    continue;
                ++res.failures;
                const TraceWorkload min =
                    shrinkTrace(trace, cfg, evidence);
                auto min_viol = checkTrace(min, cfg, evidence);
                if (min_viol.empty()) // shouldn't happen; be safe
                    min_viol = viol;

                std::string report =
                    vfmt("%s x %s, seed %llu iter %u:", p.c_str(),
                         n.c_str(),
                         static_cast<unsigned long long>(opt.seed),
                         iter);
                for (const auto &v : min_viol)
                    report += "\n  " + v;
                if (res.firstReport.empty())
                    res.firstReport = report;

                if (!opt.reproDir.empty()) {
                    const std::string path = vfmt(
                        "%s/repro_s%llu_i%u_%s_%s.trace",
                        opt.reproDir.c_str(),
                        static_cast<unsigned long long>(opt.seed),
                        iter, p.c_str(), n.c_str());
                    std::vector<std::string> comments = {
                        "minimized fuzz repro (" + p + " x " + n +
                        ")"};
                    for (const auto &v : min_viol)
                        comments.push_back("violation: " + v);
                    saveTrace(min, path, comments);
                    res.reproPaths.push_back(path);
                }
            }
        }
    }
    if (!evidence.empty()) {
        std::error_code ec;
        std::filesystem::remove(evidence, ec); // clean exit: no crash
    }
    return res;
}

} // namespace verify
} // namespace lacc
