/**
 * @file
 * Library micro-benchmarks (google-benchmark): hot paths of the
 * simulator substrate — cache lookups/fills, mesh routing, broadcast,
 * holder-set updates, classifier decisions, the event loop's event
 * queue, whole L1-hit, L1-miss and cold-fill transactions, and
 * workload generation throughput.
 */

#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "cache/set_assoc.hh"
#include "core/classifier.hh"
#include "dram/dram.hh"
#include "core/limited_classifier.hh"
#include "protocol/core_vec.hh"
#include "energy/model.hh"
#include "net/factory.hh"
#include "net/mesh.hh"
#include "system/multicore.hh"
#include "verify/enumerate.hh"
#include "verify/invariants.hh"
#include "workload/suite.hh"

namespace {

using namespace lacc;

SystemConfig
microCfg()
{
    SystemConfig c;
    c.numCores = 64;
    return c;
}

void
BM_L1Lookup(benchmark::State &state)
{
    // SoA tag-store hit path: find() scans only the flat tag array.
    L1Cache c(128, 4, 8);
    for (LineAddr l = 0; l < 512; ++l) {
        auto e = c.victimFor(l);
        e.setValid(true);
        e.setTag(l);
    }
    LineAddr l = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.find(l));
        l = (l + 1) & 511;
    }
}
BENCHMARK(BM_L1Lookup);

void
BM_L1LookupMiss(benchmark::State &state)
{
    // SoA tag-store miss path: a full-way scan that never matches
    // (the common L1 outcome on cold/shared workloads).
    L1Cache c(128, 4, 8);
    for (LineAddr l = 0; l < 512; ++l) {
        auto e = c.victimFor(l);
        e.setValid(true);
        e.setTag(l);
    }
    LineAddr l = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.find(l + 4096)); // never resident
        l = (l + 1) & 511;
    }
}
BENCHMARK(BM_L1LookupMiss);

void
BM_L1VictimSelect(benchmark::State &state)
{
    // LRU victim scan over the flat lastAccess array (full sets).
    L1Cache c(128, 4, 8);
    for (LineAddr l = 0; l < 512; ++l) {
        auto e = c.victimFor(l);
        e.setValid(true);
        e.setTag(l);
        e.setLastAccess(l);
    }
    LineAddr l = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.victimFor(l));
        l = (l + 1) & 1023;
    }
}
BENCHMARK(BM_L1VictimSelect);

void
BM_L1FillWords(benchmark::State &state)
{
    // Arena line copy (the data movement of every private grant).
    L1Cache c(128, 4, 8);
    const std::uint64_t src[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    LineAddr l = 0;
    for (auto _ : state) {
        auto e = c.victimFor(l);
        e.fillWords(src);
        benchmark::DoNotOptimize(e.words());
        l = (l + 1) & 1023;
    }
}
BENCHMARK(BM_L1FillWords);

void
BM_DramSlabWriteRead(benchmark::State &state)
{
    // DRAM slab arena steady state: write-back + fetch of a line set
    // that fits the slab (no per-line vector allocations).
    DramModel d(microCfg());
    std::uint64_t line[8] = {};
    LineAddr l = 0;
    for (auto _ : state) {
        line[0] = l;
        d.writeLine(l, line);
        d.readLine(l, line);
        benchmark::DoNotOptimize(line[0]);
        l = (l + 1) & 255;
    }
}
BENCHMARK(BM_DramSlabWriteRead);

void
BM_DramSlabColdRead(benchmark::State &state)
{
    // Untouched-line fetch: zero-fill path, no slab slot allocated.
    DramModel d(microCfg());
    std::uint64_t line[8];
    LineAddr l = 0;
    for (auto _ : state) {
        d.readLine(l, line);
        benchmark::DoNotOptimize(line[0]);
        ++l;
    }
}
BENCHMARK(BM_DramSlabColdRead);

void
BM_MeshUnicast(benchmark::State &state)
{
    EnergyModel e;
    MeshNetwork net(microCfg(), e);
    Cycle t = 0;
    CoreId dst = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.unicast(0, dst, 9, t));
        dst = static_cast<CoreId>((dst + 7) % 64);
        t += 3;
    }
}
BENCHMARK(BM_MeshUnicast);

void
BM_MeshBroadcast(benchmark::State &state)
{
    EnergyModel e;
    MeshNetwork net(microCfg(), e);
    std::vector<Cycle> arrivals;
    Cycle t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.broadcast(27, 1, t, arrivals));
        t += 10;
    }
}
BENCHMARK(BM_MeshBroadcast);

// ---------------------------------------------------------------------------
// Table-driven network hot paths, per topology.
// ---------------------------------------------------------------------------

void
BM_NetUnicast(benchmark::State &state, const char *topology)
{
    auto cfg = microCfg();
    applyNetworkName(cfg, topology);
    EnergyModel e;
    const auto net = makeNetwork(cfg, e);
    Cycle t = 0;
    CoreId dst = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(net->unicast(0, dst, 9, t));
        dst = static_cast<CoreId>((dst + 7) % 64);
        t += 3;
    }
}
BENCHMARK_CAPTURE(BM_NetUnicast, mesh, "mesh");
BENCHMARK_CAPTURE(BM_NetUnicast, torus, "torus");
BENCHMARK_CAPTURE(BM_NetUnicast, ring, "ring");
BENCHMARK_CAPTURE(BM_NetUnicast, xbar, "xbar");

void
BM_NetBroadcast(benchmark::State &state, const char *topology)
{
    auto cfg = microCfg();
    applyNetworkName(cfg, topology);
    EnergyModel e;
    const auto net = makeNetwork(cfg, e);
    std::vector<Cycle> arrivals;
    Cycle t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(net->broadcast(27, 1, t, arrivals));
        t += 10;
    }
}
BENCHMARK_CAPTURE(BM_NetBroadcast, mesh, "mesh");
BENCHMARK_CAPTURE(BM_NetBroadcast, torus, "torus");
BENCHMARK_CAPTURE(BM_NetBroadcast, ring, "ring");
BENCHMARK_CAPTURE(BM_NetBroadcast, xbar, "xbar");

void
BM_HolderVecChurn(benchmark::State &state)
{
    // The L2Meta::holders hot path: grant-order inserts, membership
    // probes, and per-sharer erases on a set sized by the arg (8 =
    // inline capacity; 16 exercises the spill path).
    const CoreId n = static_cast<CoreId>(state.range(0));
    HolderVec v;
    for (auto _ : state) {
        for (CoreId c = 0; c < n; ++c)
            v.insert(c);
        bool any = false;
        for (CoreId c = 0; c < n; ++c)
            any |= v.contains(c);
        benchmark::DoNotOptimize(any);
        for (CoreId c = 0; c < n; ++c)
            v.erase(c);
    }
}
BENCHMARK(BM_HolderVecChurn)->Arg(4)->Arg(8)->Arg(16);

void
BM_LimitedClassifierRemoteAccess(benchmark::State &state)
{
    auto cfg = microCfg();
    LimitedClassifier cls(cfg, false);
    std::vector<std::byte> rec(LimitedClassifier::recordBytes(cfg));
    cls.resetRecord(rec.data());
    cls.classify(rec.data(), 0);
    cls.onPrivateRemoval(rec.data(), 0, 1, RemovalKind::Invalidation);
    RemoteAccessContext ctx{100, false, 50};
    for (auto _ : state) {
        benchmark::DoNotOptimize(cls.onRemoteAccess(rec.data(), 0, ctx));
        // Reset the counter so the benchmark stays on the hot path.
        cls.onWriteByOther(rec.data(), 5);
    }
}
BENCHMARK(BM_LimitedClassifierRemoteAccess);

void
BM_SerialSchedulePop(benchmark::State &state)
{
    // The event loop's per-step queue work with every core queued:
    // pop the next event, reschedule the core a pseudo-random 1-64
    // cycles later (an L1 hit to a short compute burst), end the step.
    const auto cores = static_cast<std::uint32_t>(state.range(0));
    EventQueue q(cores);
    for (std::uint32_t c = 0; c < cores; ++c)
        q.schedule(static_cast<CoreId>(c), c % 7);
    std::uint64_t x = 88172645463325252ULL;
    for (auto _ : state) {
        const auto [t, c] = q.pop();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        q.schedule(c, t + 1 + (x & 63));
        q.endStep();
    }
}
BENCHMARK(BM_SerialSchedulePop)->Arg(64)->Arg(256);

void
BM_DirectoryColdFill(benchmark::State &state)
{
    // The warm-up sweep's cold fill: a core reads a line it never
    // touched, so its L1 misses and the home L2 misses into a
    // never-used slot (DRAM fetch, entry and classifier-record reset,
    // private grant; once the core's L1 is full, one L1 eviction too).
    // Each core reads its own private pages, homed on its own slice;
    // the system is rebuilt, untimed, before any slot is reused.
    const SystemConfig cfg = microCfg();
    const std::uint64_t lines_per_slice =
        static_cast<std::uint64_t>(cfg.l2Sets()) * cfg.l2Assoc;
    std::unique_ptr<Multicore> m;
    std::uint64_t i = 0;
    for (auto _ : state) {
        if (i % (lines_per_slice * cfg.numCores) == 0) {
            state.PauseTiming();
            m.reset();
            m = std::make_unique<Multicore>(cfg);
            m->setFunctionalChecks(false);
            i = 0;
            state.ResumeTiming();
        }
        const auto c = static_cast<CoreId>(i % cfg.numCores);
        const Addr a = (Addr{1} << 32) +
                       (static_cast<Addr>(c) << 26) +
                       i / cfg.numCores * cfg.lineSize;
        m->testAccess(c, a, false);
        ++i;
    }
}
BENCHMARK(BM_DirectoryColdFill);

void
BM_L1HitPath(benchmark::State &state)
{
    Multicore m(microCfg());
    m.setFunctionalChecks(false);
    const Addr a = Addr{1} << 33;
    m.testAccess(0, a, false); // warm
    for (auto _ : state)
        m.testAccess(0, a, false);
}
BENCHMARK(BM_L1HitPath);

void
BM_RemoteWordRoundtrip(benchmark::State &state)
{
    auto cfg = microCfg();
    cfg.classifierKind = ClassifierKind::Complete;
    Multicore m(cfg);
    m.setFunctionalChecks(false);
    const Addr a = Addr{1} << 33;
    // Demote core 0 on this line.
    m.testAccess(0, a, false);
    m.testAccess(1, a, false);
    m.testAccess(0, a, false);
    m.testAccess(1, a, true);
    for (auto _ : state) {
        m.testAccess(0, a, false);
        // Writes by core 1 keep core 0 remote forever.
        m.testAccess(1, a, true);
    }
}
BENCHMARK(BM_RemoteWordRoundtrip);

void
BM_RemoteWordRoundtripFaultArmed(benchmark::State &state)
{
    // Same roundtrip with a fault injector armed at rate zero: every
    // link traversal and directory touch pays the pure-hash roll, but
    // nothing ever fires (threshold 0). The delta against
    // BM_RemoteWordRoundtrip is the full cost of *enabling* fault
    // injection; BM_RemoteWordRoundtrip itself is the --faults none
    // case, where no injector exists and each hook is one untaken
    // null-pointer branch.
    auto cfg = microCfg();
    cfg.classifierKind = ClassifierKind::Complete;
    cfg.faultKind = FaultKind::Links;
    cfg.faultRate = 0.0;
    Multicore m(cfg);
    m.setFunctionalChecks(false);
    const Addr a = Addr{1} << 33;
    m.testAccess(0, a, false);
    m.testAccess(1, a, false);
    m.testAccess(0, a, false);
    m.testAccess(1, a, true);
    for (auto _ : state) {
        m.testAccess(0, a, false);
        m.testAccess(1, a, true);
    }
}
BENCHMARK(BM_RemoteWordRoundtripFaultArmed);

/**
 * Drive @p m, on the enumerator's 3-core config, to a mid-depth
 * state: an 11-access path (about the average replay depth of the
 * 3-core/1-line BFS) over both pool lines and every access kind.
 */
void
driveToMidDepth(Multicore &m)
{
    const struct
    {
        CoreId core;
        std::uint32_t line;
        int kind; // 0 read, 1 write, 2 ifetch
    } path[] = {{0, 0, 0}, {1, 0, 0}, {2, 1, 1}, {0, 0, 1}, {1, 1, 2},
                {2, 0, 0}, {0, 1, 0}, {1, 0, 1}, {2, 1, 0}, {0, 0, 2},
                {1, 1, 1}};
    for (const auto &a : path)
        m.testAccess(a.core, verify::enumAddr(a.line), a.kind == 1,
                     a.kind == 2);
}

void
BM_MulticoreConstruct(benchmark::State &state)
{
    // What the enumerator paid per successor before restore: build
    // (and destroy) a system on enumConfig(3, "lacc", "mesh").
    const SystemConfig cfg = verify::enumConfig(3, "lacc", "mesh");
    for (auto _ : state) {
        Multicore m(cfg);
        benchmark::DoNotOptimize(&m);
    }
}
BENCHMARK(BM_MulticoreConstruct);

void
BM_MulticoreRestore(benchmark::State &state)
{
    // What it pays now: restore a built system from a mid-depth one.
    const SystemConfig cfg = verify::enumConfig(3, "lacc", "mesh");
    Multicore src(cfg);
    driveToMidDepth(src);
    Multicore dst(cfg);
    for (auto _ : state) {
        dst.restoreFrom(src);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_MulticoreRestore);

void
BM_CheckAll(benchmark::State &state)
{
    // The invariant sweep the enumerator runs after every transition,
    // on the same mid-depth state.
    Multicore m(verify::enumConfig(3, "lacc", "mesh"));
    driveToMidDepth(m);
    for (auto _ : state)
        benchmark::DoNotOptimize(verify::checkAll(m));
}
BENCHMARK(BM_CheckAll);

void
BM_EncodeState(benchmark::State &state)
{
    // The canonical encoding of that state into a reused buffer, as
    // the enumerator writes it once per transition.
    Multicore m(verify::enumConfig(3, "lacc", "mesh"));
    driveToMidDepth(m);
    std::string code;
    for (auto _ : state) {
        verify::encodeState(m, 2, code);
        benchmark::DoNotOptimize(code.data());
    }
}
BENCHMARK(BM_EncodeState);

void
BM_WorkloadNext(benchmark::State &state)
{
    auto cfg = microCfg();
    auto wl = makeBenchmark("barnes", cfg, 1000.0);
    CoreId c = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(wl->next(c));
        c = static_cast<CoreId>((c + 1) % 64);
    }
}
BENCHMARK(BM_WorkloadNext);

void
BM_FullSmallRun(benchmark::State &state)
{
    // End-to-end simulator throughput on a small benchmark run.
    for (auto _ : state) {
        auto cfg = microCfg();
        auto wl = makeBenchmark("water-sp", cfg, 0.05);
        Multicore m(cfg);
        m.setFunctionalChecks(false);
        benchmark::DoNotOptimize(m.run(*wl).completionTime());
    }
}
BENCHMARK(BM_FullSmallRun)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
