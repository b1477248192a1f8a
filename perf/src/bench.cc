#include "bench.hh"

#include <algorithm>
#include <chrono>

#include "sim/abort.hh"
#include "sim/rng.hh"
#include "system/multicore.hh"
#include "system/report.hh"
#include "verify/invariants.hh"
#include "workload/suite.hh"
#include "workload/trace_file.hh"

namespace lacc {
namespace perf {

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** The enumerator's line pool: its first line sits at 4 GiB and the
 * lines are 16 lines apart (verify/enumerate.cc). */
constexpr Addr kEnumBase = Addr{1} << 32;
constexpr Addr kEnumLineStride = 16 * 64;

/** Per-core length of the enumerate workload's random path. */
constexpr std::uint32_t kEnumPathOps = 4000;

std::unique_ptr<Workload>
enumPath(const SystemConfig &cfg, std::uint32_t lines)
{
    Rng rng(cfg.seed);
    std::vector<std::vector<MemOp>> streams(cfg.numCores);
    for (auto &s : streams) {
        s.reserve(kEnumPathOps + 1);
        for (std::uint32_t i = 0; i < kEnumPathOps; ++i) {
            if (i == kEnumPathOps / 2)
                s.push_back(MemOp::barrier());
            const Addr a = kEnumBase + rng.below(lines) * kEnumLineStride;
            switch (rng.below(4)) {
              case 0: s.push_back(MemOp::read(a)); break;
              case 1: s.push_back(MemOp::write(a)); break;
              case 2: s.push_back(MemOp::ifetch(a)); break;
              default:
                s.push_back(MemOp::compute(
                    1 + static_cast<std::uint32_t>(rng.below(4))));
                break;
            }
        }
    }
    return std::make_unique<TraceWorkload>("enumerate-path",
                                           std::move(streams));
}

} // namespace

const std::vector<WorkloadDef> &
workloadDefs()
{
    // Table 1 defaults (lacc, ACKwise_4, Limited_3, PCT 4) throughout,
    // at the repository's default op scale.
    static const std::vector<WorkloadDef> defs = {
        {"private-hot",
         "L1 hits, Workload::next and Compute steps do nearly all the "
         "work; protocol, net and dram idle, so their changes show none",
         "susan", 64, 8, 1.0},
        {"shared-rw",
         "directory transactions, classifier and unicasts dominate; "
         "stores beside loads, remote mode beside private mode",
         "canneal", 64, 8, 1.0},
        {"broadcast-256",
         "net used through 255-leaf broadcast trees; largest set-up and "
         "memory, where route-table and set-up work shows",
         "streamcluster", 256, 16, 1.0},
        {"enumerate",
         "exhaustive 3-core 1-line lacc x mesh state space; rebuild and "
         "replay per successor, the verify layer's cost",
         nullptr, 3, 3, 1.0},
    };
    return defs;
}

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : workloadDefs())
        if (name == w.name)
            return &w;
    return nullptr;
}

verify::EnumOptions
enumOptions()
{
    verify::EnumOptions opt;
    opt.cores = 3;
    opt.lines = 1;
    opt.protocol = "lacc";
    opt.network = "mesh";
    return opt;
}

SystemConfig
workloadConfig(const WorkloadDef &w, std::uint64_t seed)
{
    SystemConfig cfg;
    if (isEnumerate(w)) {
        const verify::EnumOptions opt = enumOptions();
        cfg = verify::enumConfig(opt.cores, opt.protocol, opt.network);
    } else {
        cfg.numCores = w.cores;
        cfg.meshWidth = w.meshWidth;
    }
    cfg.seed = seed;
    return cfg;
}

std::unique_ptr<Workload>
buildWorkload(const WorkloadDef &w, const SystemConfig &cfg)
{
    if (isEnumerate(w))
        return enumPath(cfg, enumOptions().lines);
    return makeBenchmark(w.bench, cfg, w.opScale);
}

void
Ledger::record(const std::string &error)
{
    ++attempted_;
    if (!error.empty())
        reasons_.push_back(error);
}

double
Ledger::failFrac() const
{
    return attempted_ == 0
               ? 0.0
               : static_cast<double>(failed()) / static_cast<double>(attempted_);
}

SimRun
runSim(const WorkloadDef &w, const SystemConfig &cfg, RunMode mode,
       double timeout_ms)
{
    SimRun r;
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<Workload> workload = buildWorkload(w, cfg);
    const Clock::time_point t1 = Clock::now();
    Multicore system(cfg);
    const Clock::time_point t2 = Clock::now();
    r.workloadBuildS = seconds(t1 - t0);
    r.systemBuildS = seconds(t2 - t1);

    system.setTimeoutMs(timeout_ms);
    system.setFunctionalChecks(mode == RunMode::Checked);
    try {
        if (mode == RunMode::Traced) {
            StepTracer tracer(*workload, system);
            const Clock::time_point t3 = Clock::now();
            system.run(tracer);
            tracer.finish();
            const Clock::duration run = Clock::now() - t3;
            r.runS = seconds(run);
            const double attributed =
                static_cast<double>(tracer.attributedNs()) * 1e-9;
            r.unattributedFrac = 1.0 - attributed / r.runS;
            r.steps = tracer.steps();
            r.nextNs = tracer.nextSamples();
        } else {
            const Clock::time_point t3 = Clock::now();
            system.run(*workload);
            r.runS = seconds(Clock::now() - t3);
        }
    } catch (const RunAbort &e) {
        r.error = std::string("RunAbort (") + e.tag() + "): " + e.what();
        return r;
    }

    r.stats = system.stats();
    r.digest = statsSignature(r.stats);
    for (const CoreStats &c : r.stats.perCore)
        r.simOps += c.instructions;
    if (mode == RunMode::Checked) {
        const std::vector<std::string> viol = verify::checkAll(system);
        if (!viol.empty())
            r.error = "checkAll: " + std::to_string(viol.size()) +
                      " violation(s), first: " + viol.front();
    }
    if (r.error.empty())
        r.error = consistencyError(r.stats);
    return r;
}

void
recordRun(Ledger &ledger, SimRun &r, const SimRun *ref, const char *what)
{
    if (r.error.empty() && ref != nullptr &&
        (r.digest != ref->digest ||
         r.stats.energy.total() != ref->stats.energy.total()))
        r.error = std::string(what) +
                  ": stats digest or energy differs from the timed runs";
    ledger.record(r.error);
}

const SimRun *
reference(const std::vector<SimRun> &runs)
{
    for (const SimRun &r : runs)
        if (r.error.empty())
            return &r;
    return nullptr;
}

EnumRun
runEnumerate()
{
    EnumRun r;
    const Clock::time_point t0 = Clock::now();
    r.result = verify::enumerate(enumOptions());
    r.seconds = seconds(Clock::now() - t0);
    return r;
}

std::string
enumError(const verify::EnumResult &r)
{
    if (!r.violations.empty())
        return "enumerate: violation: " + r.violations.front();
    if (!r.exhaustive)
        return "enumerate: not exhaustive after " +
               std::to_string(r.states) + " states";
    return "";
}

VerifyProbe
probeVerify(std::uint64_t seed, double budget_s)
{
    constexpr std::size_t kMinPaths = 100;
    constexpr std::uint32_t kMaxDepth = 8;
    const verify::EnumOptions opt = enumOptions();
    const SystemConfig cfg =
        verify::enumConfig(opt.cores, opt.protocol, opt.network);
    Rng rng(seed);
    VerifyProbe p;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(budget_s));
    do {
        const Clock::time_point t0 = Clock::now();
        Multicore m(cfg);
        p.rebuildUs.push_back(seconds(Clock::now() - t0) * 1e6);
        const std::uint64_t depth = 1 + rng.below(kMaxDepth);
        for (std::uint64_t d = 0; d < depth; ++d) {
            const auto core = static_cast<CoreId>(rng.below(opt.cores));
            const Addr a =
                kEnumBase + rng.below(opt.lines) * kEnumLineStride;
            const std::uint64_t kind = rng.below(3);
            const Clock::time_point ta = Clock::now();
            m.testAccess(core, a, kind == 1, kind == 2);
            p.accessNs.push_back(seconds(Clock::now() - ta) * 1e9);
        }
        const Clock::time_point tc = Clock::now();
        const std::vector<std::string> viol = verify::checkAll(m);
        p.checkAllUs.push_back(seconds(Clock::now() - tc) * 1e6);
        if (!viol.empty() && p.error.empty())
            p.error = "checkAll after a probe path: " + viol.front();
    } while (Clock::now() < deadline || p.rebuildUs.size() < kMinPaths);
    return p;
}

LatencyBreakdown
criticalPath(const SystemStats &s)
{
    const CoreStats *slowest = nullptr;
    for (const CoreStats &c : s.perCore)
        if (slowest == nullptr || c.finishTime > slowest->finishTime)
            slowest = &c;
    return slowest == nullptr ? LatencyBreakdown{} : slowest->latency;
}

std::string
consistencyError(const SystemStats &s)
{
    const std::uint64_t sum = criticalPath(s).total();
    if (sum == s.completionTime())
        return "";
    return "critical-path latency breakdown sums to " +
           std::to_string(sum) + " cycles, completion time is " +
           std::to_string(s.completionTime());
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

} // namespace perf
} // namespace lacc
