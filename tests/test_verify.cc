/**
 * @file
 * Tests for the verification layer (src/verify/): the invariant
 * checkers themselves (including their report order and that a clean
 * check allocates nothing), the litmus regression corpus in
 * tests/litmus/ replayed under every named protocol, a fixed-seed
 * fuzz smoke, and the bounded-state enumerator's exact state and
 * transition counts on the 1-line configs.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "count_allocations.hh"
#include "protocol/protocol.hh"
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

/** Byte address of word 0 of line @p l of the page the memory tests
 * below write. */
Addr
pageLine(std::uint32_t l)
{
    return kA + static_cast<Addr>(l) * 64;
}

/**
 * Core 0 writes word 0 of all 64 lines of one page, in a scrambled
 * order. The page is private to core 0, so every line is homed at
 * tile 0, whose 32-line L2 slice (enumConfig) overflows: the lines
 * written first are written back and end up in DRAM only.
 */
void
writeWholePage(Multicore &m)
{
    for (std::uint32_t i = 0; i < 64; ++i)
        m.testAccess(0, pageLine(i * 37 % 64), true);
}

TEST(Invariants, FinalMemoryReportsCorruptWordsInAddressOrder)
{
    Multicore m(verify::enumConfig(2, "lacc", "mesh"));
    writeWholePage(m);
    ASSERT_TRUE(checkAll(m).empty());

    // Lines held by tile 0's L2 with no L1 copy, and DRAM-only lines.
    std::vector<std::uint32_t> in_l2, dram_only;
    for (std::uint32_t l = 0; l < 64; ++l) {
        const LineAddr line = pageLine(l) / 64;
        ASSERT_FALSE(m.tile(1).l2.find(line));
        if (!m.tile(0).l2.find(line))
            dram_only.push_back(l);
        else if (!m.tile(0).l1d.find(line))
            in_l2.push_back(l);
    }
    // Corrupt two L2-only words lo < hi and a DRAM-only word mid
    // between them, chosen so that the reference map visits the three
    // out of address order: the report must sort them.
    std::vector<std::uint32_t> visit(64); // visit[l]: map visit rank
    std::uint32_t rank = 0;
    m.functionalMemory().forEachWord([&](Addr wa, std::uint64_t) {
        visit[(wa - kA) / 64] = rank++;
    });
    ASSERT_EQ(rank, 64u);
    std::uint32_t lo = 0, mid = 0, hi = 0;
    bool found = false;
    for (std::size_t i = 0; i < in_l2.size() && !found; ++i)
        for (std::size_t j = i + 1; j < in_l2.size() && !found; ++j)
            for (const std::uint32_t d : dram_only) {
                lo = in_l2[i];
                hi = in_l2[j];
                mid = d;
                found = lo < mid && mid < hi &&
                        !(visit[lo] < visit[mid] &&
                          visit[mid] < visit[hi]);
                if (found)
                    break;
            }
    ASSERT_TRUE(found);

    const auto reference = [&](std::uint32_t l) {
        std::uint64_t v = 0;
        EXPECT_TRUE(m.functionalMemory().lookup(pageLine(l), v));
        return v;
    };
    const auto message = [&](std::uint32_t l, const char *where,
                             std::uint64_t has) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "word %llx: %s has %llu, reference memory has %llu",
                      static_cast<unsigned long long>(pageLine(l)), where,
                      static_cast<unsigned long long>(has),
                      static_cast<unsigned long long>(reference(l)));
        return std::string(buf);
    };
    std::vector<std::string> expected;
    for (const std::uint32_t l : {lo, mid, hi}) {
        const LineAddr line = pageLine(l) / 64;
        const std::uint64_t bad = reference(l) ^ 0xFF;
        if (l == mid) {
            std::vector<std::uint64_t> words(m.dram().wordsPerLine());
            m.dram().readLine(line, words.data());
            words[0] = bad;
            m.dram().writeLine(line, words.data());
            expected.push_back(message(l, "DRAM", bad));
        } else {
            m.tile(0).l2.find(line).words()[0] = bad;
            expected.push_back(message(l, "L2 copy at home 0", bad));
        }
    }
    EXPECT_EQ(verify::checkFinalMemory(m), expected);
}

TEST(Invariants, CleanCheckAllAllocatesNothing)
{
    // The enumerator runs checkAll after every transition; on a clean
    // state it must not touch the heap, under every protocol, with
    // reference words in M copies, L2 copies, S copies and DRAM.
    for (const auto &proto : protocolNames()) {
        SCOPED_TRACE(proto);
        Multicore m(verify::enumConfig(3, proto, "mesh"));
        writeWholePage(m);
        const Addr shared = verify::enumAddr(0);
        m.testAccess(1, shared, true);
        m.testAccess(2, shared, false);
        m.testAccess(0, shared, false, /*is_ifetch=*/true);
        ASSERT_TRUE(checkAll(m).empty());
        const std::uint64_t before = gAllocations;
        const auto viol = checkAll(m);
        const std::uint64_t allocations = gAllocations - before;
        EXPECT_TRUE(viol.empty());
        EXPECT_EQ(allocations, 0u);
    }
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
            const auto viol = checkTrace(w, cfg);
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
    const TraceWorkload min = verify::shrinkTrace(w, fuzzConfig(2));
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
