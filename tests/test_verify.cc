/**
 * @file
 * Tests for the verification layer (src/verify/): the invariant
 * checkers themselves, the litmus regression corpus in tests/litmus/
 * replayed under every factory protocol, a fixed-seed fuzz smoke, and
 * the bounded-state enumerator's exact state and transition counts on
 * the 1-line configs.
 */

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "protocol/factory.hh"
#include "system/multicore.hh"
#include "verify/enumerate.hh"
#include "verify/fuzz.hh"
#include "verify/invariants.hh"
#include "workload/trace_file.hh"

namespace lacc {
namespace {

using verify::checkAll;
using verify::checkInvariants;
using verify::checkTrace;
using verify::fuzzConfig;

constexpr Addr kA = Addr{1} << 33;

// ---------------------------------------------------------------------------
// Invariant checkers (verify/invariants.hh)
// ---------------------------------------------------------------------------

TEST(Invariants, CleanSystemHasNoViolations)
{
    Multicore m(fuzzConfig(4));
    EXPECT_TRUE(checkAll(m).empty());
    m.testAccess(0, kA, false);
    m.testAccess(1, kA, false);
    m.testAccess(2, kA, true);
    EXPECT_TRUE(checkAll(m).empty());
}

TEST(Invariants, DetectsPhantomHolder)
{
    // Self-test: corrupt the holder oracle with a core that has no L1
    // copy and the checker must flag it (and the sharer-count
    // mismatch that comes with an untracked phantom).
    Multicore m(fuzzConfig(4));
    m.testAccess(0, kA, false);
    bool corrupted = false;
    for (std::uint32_t h = 0; h < 4 && !corrupted; ++h) {
        auto e = m.tile(static_cast<CoreId>(h)).l2.find(kA >> 6);
        if (!e)
            continue;
        e.meta().holders.insert(3); // core 3 never touched kA
        corrupted = true;
    }
    ASSERT_TRUE(corrupted);
    EXPECT_FALSE(checkInvariants(m).empty());
}

TEST(Invariants, DetectsDualWriters)
{
    // Two Modified copies of one line is the canonical single-writer
    // violation.
    Multicore m(fuzzConfig(4));
    m.testAccess(0, kA, true);
    m.testAccess(1, kA, true); // invalidates core 0's copy...
    auto stale = m.tile(0).l1d.find(kA >> 6);
    ASSERT_FALSE(stale);
    m.testAccess(0, kA, false); // ...so resurrect one and corrupt it
    auto e = m.tile(0).l1d.find(kA >> 6);
    ASSERT_TRUE(e);
    e.meta().state = L1State::Modified;
    EXPECT_FALSE(checkInvariants(m).empty());
}

// ---------------------------------------------------------------------------
// Litmus corpus replay (tests/litmus/*.trace)
// ---------------------------------------------------------------------------

std::vector<std::filesystem::path>
corpusTraces()
{
    std::vector<std::filesystem::path> out;
    for (const auto &ent :
         std::filesystem::directory_iterator(LACC_LITMUS_DIR))
        if (ent.path().extension() == ".trace")
            out.push_back(ent.path());
    std::sort(out.begin(), out.end());
    return out;
}

TEST(LitmusCorpus, CorpusIsNonEmpty)
{
    // The dual-holder pins must exist; an empty directory would turn
    // the replay test below into a silent no-op.
    EXPECT_GE(corpusTraces().size(), 4u);
}

TEST(LitmusCorpus, EveryTraceCleanUnderEveryProtocol)
{
    for (const auto &path : corpusTraces()) {
        const TraceWorkload w = TraceWorkload::load(path.string());
        for (const auto &proto : protocolNames()) {
            SystemConfig cfg = fuzzConfig(w.numCores());
            applyProtocolName(cfg, proto);
            const auto viol =
                checkTrace(w, cfg, /*stepwise=*/true);
            for (const auto &v : viol)
                ADD_FAILURE() << path.filename().string() << " x "
                              << proto << ": " << v;
        }
    }
}

// ---------------------------------------------------------------------------
// Fuzzer (verify/fuzz.hh)
// ---------------------------------------------------------------------------

TEST(Fuzz, FixedSeedSmokeIsClean)
{
    verify::FuzzOptions opt;
    opt.seed = 7;
    opt.iters = 2;
    opt.cores = 4;
    opt.opsPerCore = 16;
    const verify::FuzzResult res = verify::runFuzz(opt);
    // 2 traces x every protocol x {mesh, xbar}.
    EXPECT_EQ(res.runs, 2u * protocolNames().size() * 2u);
    EXPECT_EQ(res.failures, 0u) << res.firstReport;
}

TEST(Fuzz, ShrinkerPreservesLockBalance)
{
    // A trace whose violation is injected via a checker run on a
    // corrupted config is hard to stage; instead verify the shrinker
    // contract structurally: shrinking a clean trace is a no-op
    // fixpoint (nothing reproduces, nothing removed).
    std::vector<std::vector<MemOp>> streams(2);
    streams[0] = {MemOp::lockAcquire(0), MemOp::write(kA),
                  MemOp::lockRelease(0)};
    streams[1] = {MemOp::lockAcquire(0), MemOp::read(kA),
                  MemOp::lockRelease(0)};
    const TraceWorkload w("lockpair", streams, 1);
    const TraceWorkload min =
        verify::shrinkTrace(w, fuzzConfig(2), true);
    EXPECT_EQ(min.streams()[0].size(), 3u);
    EXPECT_EQ(min.streams()[1].size(), 3u);
}

// ---------------------------------------------------------------------------
// Enumerator (verify/enumerate.hh)
// ---------------------------------------------------------------------------

/** Exact reachable-space sizes: any drift in the protocol, the
 * canonical encoding or the BFS changes them. */
struct EnumGolden
{
    const char *protocol;
    std::uint32_t cores;
    std::uint64_t states;
    std::uint64_t transitions;
};

const EnumGolden kOneLineGoldens[] = {
    {"lacc", 2, 1299, 7794},
    {"fullmap", 2, 815, 4890},
    {"lacc", 3, 34815, 313335},
};

void
expectGolden(const EnumGolden &g)
{
    verify::EnumOptions opt;
    opt.cores = g.cores;
    opt.lines = 1;
    opt.protocol = g.protocol;
    const verify::EnumResult res = verify::enumerate(opt);
    EXPECT_TRUE(res.exhaustive) << g.protocol;
    EXPECT_TRUE(res.violations.empty())
        << g.protocol << ": " << res.violations.front() << "\npath:\n"
        << res.counterexample;
    EXPECT_EQ(res.states, g.states) << g.protocol << " x" << g.cores;
    EXPECT_EQ(res.transitions, g.transitions)
        << g.protocol << " x" << g.cores;
}

TEST(Enumerate, OneLineExhaustiveAndCleanUnderEveryProtocol)
{
    for (const auto &proto : protocolNames()) {
        const auto g = std::find_if(
            std::begin(kOneLineGoldens), std::end(kOneLineGoldens),
            [&](const EnumGolden &x) {
                return x.cores == 2 && proto == x.protocol;
            });
        ASSERT_NE(g, std::end(kOneLineGoldens))
            << "no 2-core golden for protocol " << proto;
        expectGolden(*g);
    }
}

TEST(Enumerate, ThreeCoreOneLineGolden)
{
    expectGolden(kOneLineGoldens[2]);
}

TEST(Enumerate, StateCapReportsNonExhaustive)
{
    verify::EnumOptions opt;
    opt.cores = 2;
    opt.lines = 1;
    opt.maxStates = 50;
    const verify::EnumResult res = verify::enumerate(opt);
    EXPECT_FALSE(res.exhaustive);
    EXPECT_TRUE(res.violations.empty());
    EXPECT_EQ(res.states, 50u);
}

} // namespace
} // namespace lacc
