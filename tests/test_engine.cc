/**
 * @file
 * Execution-engine tests (system/engine.hh, system/sharded.hh).
 *
 * The contract under test is the strongest one the simulator makes:
 * the sharded engine must reproduce the serial event loop's results
 * *bit-identically* — same stats digest, same per-core clocks, same
 * functional memory — for every classifier, every topology, and any
 * thread count. A single diverging counter here means the epoch/
 * commit-horizon machinery speculated past a cross-tile interaction.
 *
 * Also covered: the serial engine's EventQueue against a heap
 * reference, the engine factory (names, config application), the
 * ConfigOverrides helper shared by the CLIs, the --jobs x
 * --sim-threads budget clamp, the serial-fallback path for workloads
 * without a thread-safe next(), and a litmus-corpus replay through
 * the sharded engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "net/factory.hh"
#include "sim/overrides.hh"
#include "sim/rng.hh"
#include "system/engine.hh"
#include "system/multicore.hh"
#include "system/report.hh"
#include "verify/fuzz.hh"
#include "workload/archetypes.hh"
#include "workload/trace_file.hh"

namespace lacc {
namespace {

SystemConfig
cfg8(ClassifierKind k)
{
    SystemConfig c;
    c.numCores = 8;
    c.meshWidth = 4;
    c.clusterSize = 4;
    c.numMemControllers = 2;
    c.classifierKind = k;
    return c;
}

/**
 * Same mixed workload as tests/test_determinism.cc: all six
 * archetypes + locks + barriers + the ifetch walker, so the engines
 * are compared on every op kind the event loop dispatches.
 */
SyntheticSpec
mixedSpec(std::uint32_t cores)
{
    SyntheticSpec s;
    s.name = "engine-mix";
    s.numCores = cores;
    s.mix.privateHot = 0.25;
    s.mix.privateStream = 0.2;
    s.mix.sharedRO = 0.2;
    s.mix.sharedPC = 0.15;
    s.mix.sharedStream = 0.1;
    s.mix.lockRMW = 0.1;
    s.roWriteFrac = 0.05;
    s.sharingDegree = 4;
    s.numLocks = 4;
    s.opsPerPhase = 1200;
    s.numPhases = 3;
    s.iFootprintLines = 8;
    return s;
}

/** Digest of a run under @p cfg with @p threads engine workers. */
std::uint64_t
signatureAt(SystemConfig cfg, std::uint32_t threads)
{
    if (threads != 0) {
        cfg.simThreads = threads;
        cfg.engineKind =
            threads > 1 ? EngineKind::Sharded : EngineKind::Serial;
    }
    SyntheticWorkload wl(mixedSpec(cfg.numCores), cfg);
    Multicore m(cfg);
    const SystemStats &stats = m.run(wl);
    EXPECT_EQ(m.functionalErrors(), 0u);
    return statsSignature(stats);
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// EventQueue: the min-tree must pop exactly what the binary heap the
// serial engine used to keep would pop.
// ---------------------------------------------------------------------------

using Event = std::pair<Cycle, CoreId>;

/**
 * Drive an EventQueue and a std::priority_queue reference through the
 * same random schedule/step sequence, the way the serial engine does:
 * pop, then during the step reschedule the popped core (often at its
 * own popped time), let it block, hand a lock to one blocked core, or
 * release a barrier that wakes every blocked core at once; when all
 * cores are blocked, wake them from outside a step. Times come from a
 * narrow window so equal times on different cores are common, and
 * some cores start idle. @return both pop sequences.
 */
std::pair<std::vector<Event>, std::vector<Event>>
driveQueues(std::uint32_t cores, std::uint64_t seed, std::size_t steps)
{
    Rng rng(seed);
    EventQueue q(cores);
    std::priority_queue<Event, std::vector<Event>, std::greater<>> ref;
    std::vector<CoreId> blocked;
    const auto schedule = [&](CoreId c, Cycle t) {
        q.schedule(c, t);
        ref.emplace(t, c);
    };
    for (std::uint32_t c = 0; c < cores; ++c) {
        if (rng.chance(0.8))
            schedule(static_cast<CoreId>(c), rng.below(4));
        else
            blocked.push_back(static_cast<CoreId>(c)); // starts idle
    }

    std::vector<Event> got, want;
    while (got.size() < steps) {
        if (ref.empty()) {
            EXPECT_TRUE(q.empty());
            const Cycle t = want.empty() ? 0 : want.back().first;
            for (const CoreId b : blocked)
                schedule(b, t + rng.below(3));
            blocked.clear();
            continue;
        }
        EXPECT_FALSE(q.empty());
        got.push_back(q.pop());
        want.push_back(ref.top());
        ref.pop();
        const auto [t, c] = want.back();
        const std::uint64_t action = rng.below(10);
        if (action == 0) {
            blocked.push_back(c); // barrier arrival / lock wait
        } else if (action == 1 && !blocked.empty()) {
            // Barrier release: every waiter wakes in the same step,
            // mostly at one time, and the releasing core continues.
            const Cycle rel = t + rng.below(5);
            for (const CoreId b : blocked)
                schedule(b, rel + (rng.chance(0.7) ? 0 : rng.below(3)));
            blocked.clear();
            schedule(c, rel);
        } else if (action == 2 && !blocked.empty()) {
            // Lock handoff: one waiter wakes, the releaser continues.
            const std::size_t i = rng.below(blocked.size());
            schedule(blocked[i], t + rng.below(3));
            blocked.erase(blocked.begin() + static_cast<long>(i));
            schedule(c, t + rng.below(3));
        } else if (action < 6) {
            schedule(c, t); // rescheduled at its own popped time
        } else {
            schedule(c, t + 1 + rng.below(8));
        }
        q.endStep();
    }
    return {got, want};
}

TEST(EventQueue, PopsInHeapOrderUnderRandomSchedules)
{
    for (const std::uint32_t cores : {1u, 3u, 64u, 256u}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE(std::to_string(cores) + " cores, seed " +
                         std::to_string(seed));
            const auto [got, want] =
                driveQueues(cores, seed * 1000003 + cores, 20000);
            ASSERT_EQ(got.size(), want.size());
            EXPECT_TRUE(got == want);
        }
    }
}

TEST(EventQueue, EmptyUntilScheduledAndAfterLastStep)
{
    EventQueue q(5);
    EXPECT_TRUE(q.empty());
    q.schedule(4, 7);
    q.schedule(2, 7);
    EXPECT_EQ(q.pop(), (Event{7, 2})); // equal times: lower core first
    q.endStep();                       // core 2 finished
    EXPECT_EQ(q.pop(), (Event{7, 4}));
    q.schedule(4, 7);                  // same key again, same step
    q.endStep();
    EXPECT_EQ(q.pop(), (Event{7, 4}));
    q.endStep();
    EXPECT_TRUE(q.empty());
}

TEST(EngineFactory, NamesAndRoundTrip)
{
    const std::vector<std::string> expect = {"serial", "sharded"};
    EXPECT_EQ(engineNames(), expect);

    SystemConfig cfg;
    EXPECT_STREQ(engineNameFor(cfg), "serial");
    applyEngineName(cfg, "sharded");
    EXPECT_EQ(cfg.engineKind, EngineKind::Sharded);
    EXPECT_STREQ(engineNameFor(cfg), "sharded");
    applyEngineName(cfg, "serial");
    EXPECT_EQ(cfg.engineKind, EngineKind::Serial);
}

TEST(EngineFactory, MulticoreReportsItsEngine)
{
    SystemConfig cfg = cfg8(ClassifierKind::Limited);
    EXPECT_STREQ(Multicore(cfg).engine().name(), "serial");
    cfg.engineKind = EngineKind::Sharded;
    cfg.simThreads = 2;
    EXPECT_STREQ(Multicore(cfg).engine().name(), "sharded");
}

// ---------------------------------------------------------------------------
// Bit-identical equality: sharded vs serial
// ---------------------------------------------------------------------------

TEST(EngineEquality, ShardedMatchesSerialPerClassifier)
{
    const ClassifierKind kinds[] = {
        ClassifierKind::Complete, ClassifierKind::Limited,
        ClassifierKind::Timestamp, ClassifierKind::AlwaysPrivate};
    for (const auto k : kinds) {
        const std::uint64_t serial = signatureAt(cfg8(k), 0);
        for (const std::uint32_t t : {2u, 4u}) {
            EXPECT_EQ(signatureAt(cfg8(k), t), serial)
                << "classifier " << static_cast<int>(k)
                << " diverges at --sim-threads " << t;
        }
    }
}

TEST(EngineEquality, ShardedMatchesSerialPerTopology)
{
    for (const auto &name : networkNames()) {
        SystemConfig cfg = cfg8(ClassifierKind::Limited);
        applyNetworkName(cfg, name);
        const std::uint64_t serial = signatureAt(cfg, 0);
        for (const std::uint32_t t : {2u, 4u}) {
            EXPECT_EQ(signatureAt(cfg, t), serial)
                << name << " diverges at --sim-threads " << t;
        }
    }
}

TEST(EngineEquality, ShardedMatchesCommittedGolden)
{
    // Not just self-consistency: the sharded engine at 4 threads must
    // land on the exact golden tests/test_determinism.cc pins for the
    // serial seed behavior.
    EXPECT_EQ(signatureAt(cfg8(ClassifierKind::Limited), 4),
              0x4a9d58c62567b5f4ULL);
}

TEST(EngineEquality, ThreadCountExceedingCoresIsClamped)
{
    // More workers than tiles: the pool clamps to numCores and the
    // result is still bit-identical.
    EXPECT_EQ(signatureAt(cfg8(ClassifierKind::Limited), 32),
              signatureAt(cfg8(ClassifierKind::Limited), 0));
}

TEST(EngineEquality, SimThreadsOneIsSerialEngine)
{
    // --sim-threads 1 must not select the sharded machinery.
    SystemConfig cfg = cfg8(ClassifierKind::Limited);
    ConfigOverrides ov;
    ov.simThreads = 1;
    ov.apply(cfg);
    EXPECT_EQ(cfg.engineKind, EngineKind::Serial);
    EXPECT_EQ(signatureAt(cfg, 0),
              signatureAt(cfg8(ClassifierKind::Limited), 0));
}

// ---------------------------------------------------------------------------
// Serial fallback for workloads without a thread-safe next()
// ---------------------------------------------------------------------------

/** Forwarding wrapper that hides concurrentNextSafe() (base: false). */
class UnsafeNextWorkload : public Workload
{
  public:
    explicit UnsafeNextWorkload(Workload &inner) : inner_(inner) {}

    const std::string &name() const override { return inner_.name(); }
    std::uint32_t numCores() const override { return inner_.numCores(); }
    std::uint32_t numLocks() const override { return inner_.numLocks(); }
    MemOp next(CoreId core) override { return inner_.next(core); }
    std::uint32_t
    iFootprintLines(CoreId core) const override
    {
        return inner_.iFootprintLines(core);
    }
    std::uint64_t
    footprintBytes() const override
    {
        return inner_.footprintBytes();
    }
    Addr
    lockAddr(std::uint32_t id) const override
    {
        return inner_.lockAddr(id);
    }
    Addr codeBase() const override { return inner_.codeBase(); }
    std::uint32_t
    warmupBarriers() const override
    {
        return inner_.warmupBarriers();
    }

  private:
    Workload &inner_;
};

TEST(EngineFallback, UnsafeWorkloadFallsBackToSerialResults)
{
    SystemConfig cfg = cfg8(ClassifierKind::Limited);
    cfg.engineKind = EngineKind::Sharded;
    cfg.simThreads = 4;
    SyntheticWorkload inner(mixedSpec(cfg.numCores), cfg);
    UnsafeNextWorkload wl(inner);
    ASSERT_FALSE(wl.concurrentNextSafe());
    Multicore m(cfg);
    const std::uint64_t sig = statsSignature(m.run(wl));
    EXPECT_EQ(m.functionalErrors(), 0u);
    EXPECT_EQ(sig, signatureAt(cfg8(ClassifierKind::Limited), 0));
}

// ---------------------------------------------------------------------------
// Litmus corpus through the sharded engine
// ---------------------------------------------------------------------------

TEST(EngineLitmus, CorpusReplaysCleanThroughShardedEngine)
{
    // Full timed runs only (stepwise replay drives testAccess and is
    // engine-independent): every committed litmus trace, under every
    // protocol, with the invariants + reference memory checking the
    // sharded engine's final state.
    std::vector<std::filesystem::path> traces;
    for (const auto &ent :
         std::filesystem::directory_iterator(LACC_LITMUS_DIR))
        if (ent.path().extension() == ".trace")
            traces.push_back(ent.path());
    std::sort(traces.begin(), traces.end());
    ASSERT_FALSE(traces.empty());

    for (const auto &path : traces) {
        const TraceWorkload w = TraceWorkload::load(path.string());
        for (const auto &proto : protocolNames()) {
            SystemConfig cfg = verify::fuzzConfig(w.numCores());
            applyProtocolName(cfg, proto);
            cfg.engineKind = EngineKind::Sharded;
            cfg.simThreads = 4;
            for (const auto &v :
                 verify::checkTrace(w, cfg, /*stepwise=*/false))
                ADD_FAILURE() << path.filename().string() << " x "
                              << proto << ": " << v;
        }
    }
}

// ---------------------------------------------------------------------------
// ConfigOverrides + thread-budget clamp (sim/overrides.hh)
// ---------------------------------------------------------------------------

TEST(Overrides, ApplySelectsEngineAndFactories)
{
    SystemConfig cfg;
    ConfigOverrides ov;
    ov.protocol = "fullmap";
    ov.network = "torus";
    ov.simThreads = 4;
    EXPECT_TRUE(ov.validateOrReport());
    ov.apply(cfg);
    EXPECT_STREQ(protocolNameFor(cfg), "fullmap");
    EXPECT_STREQ(networkNameFor(cfg), "torus");
    EXPECT_EQ(cfg.engineKind, EngineKind::Sharded);
    EXPECT_EQ(cfg.simThreads, 4u);

    ConfigOverrides bad;
    bad.protocol = "nope";
    EXPECT_FALSE(bad.validateOrReport());
    bad = ConfigOverrides{};
    bad.network = "nope";
    EXPECT_FALSE(bad.validateOrReport());
    EXPECT_TRUE(ConfigOverrides{}.validateOrReport());
    EXPECT_FALSE(ConfigOverrides{}.any());
    EXPECT_TRUE(ov.any());
}

TEST(Overrides, ClampJobsToBudget)
{
    // Within budget: untouched.
    EXPECT_EQ(clampJobsToBudget(8, 0, 16), 8u);
    EXPECT_EQ(clampJobsToBudget(8, 1, 16), 8u);
    EXPECT_EQ(clampJobsToBudget(8, 2, 16), 8u);
    // Over budget: jobs x simThreads capped to the budget.
    EXPECT_EQ(clampJobsToBudget(8, 4, 16), 4u);
    EXPECT_EQ(clampJobsToBudget(16, 3, 16), 5u);
    // A single job always survives, however oversubscribed.
    EXPECT_EQ(clampJobsToBudget(8, 32, 16), 1u);
    EXPECT_EQ(clampJobsToBudget(1, 1024, 1), 1u);
    // Degenerate inputs: 0 jobs means 1; 0 budget means 1.
    EXPECT_EQ(clampJobsToBudget(0, 1, 16), 1u);
    EXPECT_EQ(clampJobsToBudget(4, 1, 0), 1u);
    EXPECT_EQ(clampJobsToBudget(4, 1, 2), 2u);
}

} // namespace
} // namespace lacc
