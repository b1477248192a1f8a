/**
 * @file
 * End-to-end system tests: full runs of synthetic workloads with
 * barriers and locks, accounting invariants (the completion-time
 * breakdown telescopes to the core's finish time), directory/L1
 * consistency after a run, and Adapt1-way vs Adapt2-way behavior.
 */

#include <gtest/gtest.h>

#include "system/multicore.hh"
#include "workload/archetypes.hh"
#include "workload/suite.hh"
#include "workload/trace_file.hh"

namespace lacc {
namespace {

SystemConfig
sysCfg(std::uint32_t cores = 8)
{
    SystemConfig c;
    c.numCores = cores;
    c.meshWidth = cores >= 4 ? 4 : cores;
    c.clusterSize = cores >= 4 ? 4 : cores;
    c.numMemControllers = 2;
    c.l1iSizeKB = 2;
    c.l1dSizeKB = 4;
    c.l2SizeKB = 32;
    return c;
}

SyntheticSpec
mixedSpec(std::uint32_t cores)
{
    SyntheticSpec s;
    s.name = "mixed";
    s.numCores = cores;
    s.mix.privateHot = 0.35;
    s.mix.privateStream = 0.2;
    s.mix.sharedRO = 0.2;
    s.mix.sharedPC = 0.15;
    s.mix.lockRMW = 0.1;
    s.privateHotBytes = 2 << 10;
    s.privateStreamBytes = 16 << 10;
    s.sharedROBytes = 32 << 10;
    s.sharedPCBytes = 16 << 10;
    s.numLocks = 4;
    s.csLines = 2;
    s.opsPerPhase = 400;
    s.numPhases = 3;
    s.sharingDegree = 4;
    s.computePerMemop = 2;
    s.iFootprintLines = 8;
    return s;
}

/** Cross-checks every invariant we can assert after a run. */
void
checkSystemInvariants(Multicore &m, const SystemStats &st)
{
    const auto &cfg = m.config();

    // Functional correctness: every read saw the reference value.
    EXPECT_EQ(m.functionalErrors(), 0u);

    for (CoreId c = 0; c < cfg.numCores; ++c) {
        const auto &cs = st.perCore[c];
        // The breakdown telescopes exactly to the finish time.
        EXPECT_EQ(cs.latency.total(), cs.finishTime) << "core " << c;
        // Misses cannot exceed accesses.
        EXPECT_LE(cs.l1d.misses(), cs.l1d.accesses());
        EXPECT_LE(cs.misses.total(), cs.l1d.accesses());
    }

    // Directory/L1 consistency: every valid L1 line is registered at
    // its home; holder lists are exact; ACKwise counts match.
    std::uint64_t l1_lines = 0;
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        for (L1Cache *l1 : {&m.tile(c).l1d, &m.tile(c).l1i}) {
            l1->forEach([&](L1Cache::Entry e) {
                if (!e.valid())
                    return;
                ++l1_lines;
                bool found = false;
                for (CoreId h = 0; h < cfg.numCores && !found; ++h) {
                    const auto l2e = m.tile(h).l2.find(e.tag());
                    if (!l2e)
                        continue;
                    for (const CoreId hc : l2e.meta().holders)
                        found |= hc == c;
                }
                EXPECT_TRUE(found)
                    << "orphan L1 line " << std::hex << e.tag();
            });
        }
    }

    std::uint64_t holder_refs = 0;
    for (CoreId h = 0; h < cfg.numCores; ++h) {
        m.tile(h).l2.forEach([&](L2Cache::Entry e) {
            if (!e.valid())
                return;
            holder_refs += e.meta().holders.size();
            if (e.meta().dstate == DirState::Exclusive) {
                EXPECT_EQ(e.meta().holders.size(), 1u);
            }
            if (e.meta().dstate == DirState::Uncached) {
                EXPECT_TRUE(e.meta().holders.empty());
            }
            // Every holder really has the line.
            for (const CoreId hc : e.meta().holders) {
                const bool in_d =
                    static_cast<bool>(m.tile(hc).l1d.find(e.tag()));
                const bool in_i =
                    static_cast<bool>(m.tile(hc).l1i.find(e.tag()));
                EXPECT_TRUE(in_d || in_i);
            }
        });
    }
    EXPECT_EQ(holder_refs, l1_lines)
        << "holder lists exactly mirror L1 contents";
}

TEST(System, MixedWorkloadRunsToCompletion)
{
    auto cfg = sysCfg();
    SyntheticWorkload wl(mixedSpec(8), cfg);
    Multicore m(cfg);
    const auto &st = m.run(wl);
    EXPECT_GT(st.completionTime(), 0u);
    for (const auto &cs : st.perCore) {
        EXPECT_GT(cs.instructions, 0u);
        EXPECT_GT(cs.finishTime, 0u);
    }
    checkSystemInvariants(m, st);
}

TEST(System, RunIsDeterministic)
{
    auto cfg = sysCfg();
    SyntheticWorkload w1(mixedSpec(8), cfg);
    SyntheticWorkload w2(mixedSpec(8), cfg);
    Multicore m1(cfg), m2(cfg);
    const auto &a = m1.run(w1);
    const auto &b = m2.run(w2);
    EXPECT_EQ(a.completionTime(), b.completionTime());
    EXPECT_EQ(a.network.flitHops, b.network.flitHops);
    EXPECT_EQ(a.protocol.promotions, b.protocol.promotions);
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
}

TEST(System, RunIsSingleUse)
{
    auto cfg = sysCfg();
    SyntheticWorkload wl(mixedSpec(8), cfg);
    Multicore m(cfg);
    m.run(wl);
    SyntheticWorkload wl2(mixedSpec(8), cfg);
    EXPECT_EXIT(m.run(wl2), testing::ExitedWithCode(1), "single-use");
}

TEST(System, BarrierSynchronizesAndCharges)
{
    // One fast core and one slow core meet at a barrier: the fast one
    // accrues synchronization time.
    auto cfg = sysCfg(2);
    cfg.meshWidth = 2;
    cfg.clusterSize = 2;
    std::vector<std::vector<MemOp>> streams(2);
    streams[0] = {MemOp::compute(10), MemOp::barrier(),
                  MemOp::compute(1)};
    streams[1] = {MemOp::compute(5000), MemOp::barrier(),
                  MemOp::compute(1)};
    TraceWorkload wl("barrier", streams, 0);
    Multicore m(cfg);
    const auto &st = m.run(wl);
    EXPECT_GT(st.perCore[0].latency.synchronization, 4000u);
    EXPECT_EQ(st.perCore[1].latency.synchronization, 0u);
    // Both finish at roughly the same time.
    const auto f0 = st.perCore[0].finishTime;
    const auto f1 = st.perCore[1].finishTime;
    EXPECT_LT(f0 > f1 ? f0 - f1 : f1 - f0, 200u);
    checkSystemInvariants(m, st);
}

TEST(System, LockMutualExclusionAndHandoff)
{
    auto cfg = sysCfg(4);
    cfg.meshWidth = 2;
    // All four cores serialize on one lock around a shared counter.
    const Addr counter = Addr{1} << 33;
    std::vector<std::vector<MemOp>> streams(4);
    for (int c = 0; c < 4; ++c) {
        for (int i = 0; i < 3; ++i) {
            streams[c].push_back(MemOp::lockAcquire(0));
            streams[c].push_back(MemOp::read(counter));
            streams[c].push_back(MemOp::write(counter));
            streams[c].push_back(MemOp::lockRelease(0));
        }
    }
    TraceWorkload wl("lock", streams, 1);
    Multicore m(cfg);
    const auto &st = m.run(wl);
    // Contention must show up as synchronization time somewhere.
    std::uint64_t sync = 0;
    for (const auto &cs : st.perCore)
        sync += cs.latency.synchronization;
    EXPECT_GT(sync, 0u);
    checkSystemInvariants(m, st);
}

TEST(System, AdaptiveBeatsBaselineOnLowLocalitySharing)
{
    // Producer-consumer data with single-use reads: the adaptive
    // protocol should cut network traffic relative to PCT=1 behavior.
    auto mk_spec = [&](std::uint32_t cores) {
        SyntheticSpec s;
        s.name = "pc";
        s.numCores = cores;
        s.mix.sharedPC = 0.8;
        s.mix.privateHot = 0.2;
        s.pcReadBurst = 1;
        s.pcWriteBurst = 1;
        s.sharedPCBytes = 16 << 10;
        s.opsPerPhase = 500;
        s.numPhases = 4;
        s.sharingDegree = 4;
        s.computePerMemop = 1;
        s.iFootprintLines = 4;
        return s;
    };
    auto cfg_base = sysCfg();
    cfg_base.classifierKind = ClassifierKind::AlwaysPrivate;
    auto cfg_adapt = sysCfg();
    cfg_adapt.classifierKind = ClassifierKind::Complete;

    SyntheticWorkload wb(mk_spec(8), cfg_base);
    SyntheticWorkload wa(mk_spec(8), cfg_adapt);
    Multicore mb(cfg_base), ma(cfg_adapt);
    const auto &sb = mb.run(wb);
    const auto &sa = ma.run(wa);

    EXPECT_GT(sa.protocol.remoteReads + sa.protocol.remoteWrites, 0u);
    EXPECT_LT(sa.network.flitHops, sb.network.flitHops);
    EXPECT_LT(sa.protocol.invalidationsSent,
              sb.protocol.invalidationsSent);
    checkSystemInvariants(ma, sa);
    checkSystemInvariants(mb, sb);
}

TEST(System, OneWayWorseOnPhaseShiftingWorkload)
{
    // Role-swapping private regions: one-way demotion can never
    // recover, two-way re-promotes (§5.4).
    auto mk_spec = [&](std::uint32_t cores) {
        SyntheticSpec s;
        s.name = "phase";
        s.numCores = cores;
        // Two 4 KB regions against a 4 KB L1-D: the streamed region
        // evicts (and demotes) lines every phase; after the swap the
        // previously-demoted region is the hot one.
        s.mix.privateHot = 0.7;
        s.mix.privateStream = 0.3;
        s.privateHotBytes = 4 << 10;
        s.privateStreamBytes = 4 << 10;
        s.privateHotUtil = 8;
        s.privateStreamUtil = 1;
        s.phaseShift = true;
        s.opsPerPhase = 1500;
        s.numPhases = 8;
        s.sharingDegree = 4;
        s.computePerMemop = 1;
        s.iFootprintLines = 4;
        return s;
    };
    auto cfg2 = sysCfg();
    cfg2.classifierKind = ClassifierKind::Complete;
    auto cfg1 = cfg2;
    cfg1.protocolKind = ProtocolKind::AdaptOneWay;

    SyntheticWorkload w2(mk_spec(8), cfg2);
    SyntheticWorkload w1(mk_spec(8), cfg1);
    Multicore m2(cfg2), m1(cfg1);
    const auto &s2 = m2.run(w2);
    const auto &s1 = m1.run(w1);

    EXPECT_EQ(s1.protocol.promotions, 0u);
    EXPECT_GT(s2.protocol.promotions, 0u);
    EXPECT_GT(s1.completionTime(), s2.completionTime());
}

TEST(System, IfetchWalkerTouchesInstructionPath)
{
    auto cfg = sysCfg();
    auto spec = mixedSpec(8);
    spec.iFootprintLines = 16;
    SyntheticWorkload wl(spec, cfg);
    Multicore m(cfg);
    const auto &st = m.run(wl);
    std::uint64_t ifetches = 0, l1i_accesses = 0;
    for (const auto &cs : st.perCore) {
        ifetches += cs.ifetches;
        l1i_accesses += cs.l1i.accesses();
    }
    EXPECT_GT(ifetches, 0u);
    EXPECT_GT(l1i_accesses, 0u);
    EXPECT_GT(st.energy.l1i, 0.0);
    // Instruction pages were classified as such.
    EXPECT_GT(m.pageTable().countClass(PageClass::Instruction), 0u);
}

TEST(System, EnergyComponentsAllPopulated)
{
    auto cfg = sysCfg();
    SyntheticWorkload wl(mixedSpec(8), cfg);
    Multicore m(cfg);
    const auto &st = m.run(wl);
    EXPECT_GT(st.energy.l1i, 0.0);
    EXPECT_GT(st.energy.l1d, 0.0);
    EXPECT_GT(st.energy.l2, 0.0);
    EXPECT_GT(st.energy.directory, 0.0);
    EXPECT_GT(st.energy.router, 0.0);
    EXPECT_GT(st.energy.link, 0.0);
    EXPECT_GT(st.energy.total(), 0.0);
}

TEST(System, UtilizationHistogramsPopulated)
{
    auto cfg = sysCfg();
    SyntheticWorkload wl(mixedSpec(8), cfg);
    Multicore m(cfg);
    const auto &st = m.run(wl);
    EXPECT_GT(st.evictionUtil.total() + st.invalidationUtil.total(), 0u);
}

TEST(System, SuiteBenchmarksRunOnSmallSystem)
{
    // Every named benchmark completes with invariants intact on a
    // small 8-core system at a tiny op budget.
    auto cfg = sysCfg();
    for (const auto &name : benchmarkNames()) {
        auto wl = makeBenchmark(name, cfg, 0.05);
        Multicore m(cfg);
        const auto &st = m.run(*wl);
        EXPECT_GT(st.completionTime(), 0u) << name;
        EXPECT_EQ(m.functionalErrors(), 0u) << name;
        for (const auto &cs : st.perCore)
            EXPECT_EQ(cs.latency.total(), cs.finishTime) << name;
    }
}

TEST(System, StaticNucaAblationRuns)
{
    auto cfg = sysCfg();
    cfg.rnucaEnabled = false;
    SyntheticWorkload wl(mixedSpec(8), cfg);
    Multicore m(cfg);
    const auto &st = m.run(wl);
    EXPECT_GT(st.completionTime(), 0u);
    EXPECT_EQ(m.stats().protocol.rehomeFlushes, 0u)
        << "no re-homing without R-NUCA";
    checkSystemInvariants(m, st);
}

TEST(System, RnucaKeepsPrivateDataLocal)
{
    // With R-NUCA, private pages home at their owner: local L2 slice
    // accesses generate no network traffic for the L1<->L2 path, so a
    // private-only workload should use far fewer flit-hops than the
    // static-NUCA ablation.
    auto mk_spec = [&]() {
        SyntheticSpec s;
        s.name = "privonly";
        s.numCores = 8;
        s.mix.privateStream = 1.0;
        s.privateStreamBytes = 16 << 10;
        s.privateStreamUtil = 2;
        s.privateWriteFrac = 0.2;
        s.opsPerPhase = 500;
        s.numPhases = 2;
        s.sharingDegree = 4;
        s.computePerMemop = 0;
        s.iFootprintLines = 0;
        return s;
    };
    auto cfg_r = sysCfg();
    auto cfg_s = sysCfg();
    cfg_s.rnucaEnabled = false;
    SyntheticWorkload wr(mk_spec(), cfg_r);
    SyntheticWorkload ws(mk_spec(), cfg_s);
    Multicore mr(cfg_r), ms(cfg_s);
    const auto &sr = mr.run(wr);
    const auto &ss = ms.run(ws);
    EXPECT_LT(sr.network.flitHops, ss.network.flitHops / 2);
    EXPECT_LT(sr.completionTime(), ss.completionTime());
}

TEST(System, CompleteShortcutMatchesOrBeatsComplete)
{
    // The learning short-cut must not break anything; on a
    // sharing-heavy workload it should reduce (or at least not
    // increase) the number of wrong-mode private grants.
    auto cfg_a = sysCfg();
    cfg_a.classifierKind = ClassifierKind::Complete;
    auto cfg_b = cfg_a;
    cfg_b.completeLearningShortcut = true;
    SyntheticWorkload wa(mixedSpec(8), cfg_a);
    SyntheticWorkload wb(mixedSpec(8), cfg_b);
    Multicore ma(cfg_a), mb(cfg_b);
    const auto &sa = ma.run(wa);
    const auto &sb = mb.run(wb);
    EXPECT_EQ(ma.functionalErrors(), 0u);
    EXPECT_EQ(mb.functionalErrors(), 0u);
    // Both complete; shapes may differ slightly.
    EXPECT_GT(sa.completionTime(), 0u);
    EXPECT_GT(sb.completionTime(), 0u);
}

TEST(Warmup, StatsResetAtWarmupBarrier)
{
    // With a warm-up phase, cold misses land in the warm-up epoch and
    // the measured epoch starts clean: dramatically fewer cold misses
    // and a much smaller completion time than the unwarmed run.
    auto cfg = sysCfg();
    auto spec = mixedSpec(8);
    spec.numPhases = 3;

    auto warm_spec = spec;
    warm_spec.warmupPhases = 1;
    auto cold_spec = spec;
    cold_spec.warmupPhases = 0;

    SyntheticWorkload warm(warm_spec, cfg);
    SyntheticWorkload cold(cold_spec, cfg);
    Multicore mw(cfg), mc(cfg);
    const auto &sw = mw.run(warm);
    const auto &sc = mc.run(cold);

    const auto warm_cold_misses = sw.totalMisses().get(MissType::Cold);
    const auto cold_cold_misses = sc.totalMisses().get(MissType::Cold);
    EXPECT_LT(warm_cold_misses, cold_cold_misses / 4);
    EXPECT_LT(sw.completionTime(), sc.completionTime());
    // Breakdown invariants hold in the measured epoch too.
    for (const auto &cs : sw.perCore)
        EXPECT_EQ(cs.latency.total(), cs.finishTime);
    checkSystemInvariants(mw, sw);
}

TEST(Warmup, SweepCoversFootprint)
{
    // After the warm-up phase the DRAM has served (nearly) the whole
    // footprint, so the measured epoch performs almost no fetches.
    auto cfg = sysCfg();
    auto spec = mixedSpec(8);
    spec.numPhases = 3;
    spec.warmupPhases = 1;
    SyntheticWorkload wl(spec, cfg);
    Multicore m(cfg);
    const auto &st = m.run(wl);
    // Measured-epoch fetches are a small residue of total traffic
    // (the tiny test L2 still churns a little).
    EXPECT_LT(st.protocol.dramFetches,
              st.totalL1dAccesses() / 20 + 200);
}

TEST(Warmup, TraceWorkloadsUnaffected)
{
    // Default warmupBarriers() == 0: nothing resets.
    auto cfg = sysCfg(2);
    cfg.meshWidth = 2;
    cfg.clusterSize = 2;
    std::vector<std::vector<MemOp>> streams(2);
    streams[0] = {MemOp::compute(10), MemOp::barrier(),
                  MemOp::compute(10)};
    streams[1] = {MemOp::compute(10), MemOp::barrier(),
                  MemOp::compute(10)};
    TraceWorkload wl("nowarm", streams, 0);
    Multicore m(cfg);
    const auto &st = m.run(wl);
    // Compute from *both* sides of the barrier is retained.
    EXPECT_GE(st.perCore[0].latency.compute, 20u);
}

TEST(System, WorkloadCoreMismatchIsFatal)
{
    auto cfg = sysCfg(8);
    auto spec = mixedSpec(4);
    SystemConfig cfg4 = sysCfg(4);
    cfg4.meshWidth = 2;
    cfg4.clusterSize = 2;
    SyntheticWorkload wl(spec, cfg4);
    Multicore m(cfg);
    EXPECT_EXIT(m.run(wl), testing::ExitedWithCode(1), "cores");
}

} // namespace
} // namespace lacc
