/**
 * @file
 * Unit tests for the set-associative cache array (structure-of-arrays
 * tag store + line-data arena, addressed through Entry handles) and
 * the miss-type tracker (Section 4.4 taxonomy).
 */

#include <vector>

#include <gtest/gtest.h>

#include "cache/miss_status.hh"
#include "cache/set_assoc.hh"
#include "sim/rng.hh"

namespace lacc {
namespace {

TEST(SetAssoc, FindMissOnEmpty)
{
    L1Cache c(16, 4, 8);
    EXPECT_FALSE(c.find(0x123));
    EXPECT_EQ(c.validCount(), 0u);
}

TEST(SetAssoc, FillAndFind)
{
    L1Cache c(16, 4, 8);
    auto e = c.victimFor(0x123);
    EXPECT_FALSE(e.valid());
    e.setValid(true);
    e.setTag(0x123);
    e.meta().state = L1State::Shared;
    auto f = c.find(0x123);
    ASSERT_TRUE(f);
    EXPECT_EQ(f.tag(), 0x123u);
    EXPECT_EQ(f.meta().state, L1State::Shared);
    EXPECT_EQ(f, e) << "find returns a handle to the same slot";
    EXPECT_EQ(c.validCount(), 1u);
}

TEST(SetAssoc, SetIndexLowBits)
{
    L1Cache c(16, 4, 8);
    EXPECT_EQ(c.setIndex(0x10), 0x0u);
    EXPECT_EQ(c.setIndex(0x11), 0x1u);
    EXPECT_EQ(c.setIndex(0x2f), 0xfu);
}

TEST(SetAssoc, VictimPrefersInvalidWay)
{
    L1Cache c(4, 2, 8);
    // Fill way 0 of set 1.
    auto e0 = c.victimFor(1);
    e0.setValid(true);
    e0.setTag(1);
    e0.setLastAccess(100);
    // Same set (line 5 -> set 1): must pick the invalid way, not LRU.
    auto e1 = c.victimFor(5);
    EXPECT_FALSE(e1.valid());
    EXPECT_NE(e1, e0);
}

TEST(SetAssoc, VictimIsLru)
{
    L1Cache c(4, 2, 8);
    auto e0 = c.victimFor(1);
    e0.setValid(true);
    e0.setTag(1);
    e0.setLastAccess(200);
    auto e1 = c.victimFor(5);
    e1.setValid(true);
    e1.setTag(5);
    e1.setLastAccess(100); // older
    auto v = c.victimFor(9); // set 1 again, both ways full
    EXPECT_EQ(v, e1);
}

TEST(SetAssoc, HasInvalidWay)
{
    L1Cache c(4, 2, 8);
    EXPECT_TRUE(c.hasInvalidWay(1));
    auto e0 = c.victimFor(1);
    e0.setValid(true);
    e0.setTag(1);
    EXPECT_TRUE(c.hasInvalidWay(1));
    auto e1 = c.victimFor(5);
    e1.setValid(true);
    e1.setTag(5);
    EXPECT_FALSE(c.hasInvalidWay(1));
    EXPECT_TRUE(c.hasInvalidWay(2)); // other sets untouched
}

TEST(SetAssoc, MinLastAccess)
{
    L1Cache c(4, 2, 8);
    EXPECT_EQ(c.minLastAccess(1), 0u); // empty set
    auto e0 = c.victimFor(1);
    e0.setValid(true);
    e0.setTag(1);
    e0.setLastAccess(50);
    auto e1 = c.victimFor(5);
    e1.setValid(true);
    e1.setTag(5);
    e1.setLastAccess(30);
    EXPECT_EQ(c.minLastAccess(9), 30u);
}

TEST(SetAssoc, InvalidateResetsEntry)
{
    L1Cache c(4, 2, 8);
    auto e = c.victimFor(1);
    e.setValid(true);
    e.setTag(1);
    e.meta().state = L1State::Modified;
    e.meta().privateUtil = 7;
    e.words()[3] = 42;
    c.invalidate(e);
    EXPECT_FALSE(e.valid());
    EXPECT_EQ(e.meta().state, L1State::Invalid);
    EXPECT_EQ(e.meta().privateUtil, 0u);
    EXPECT_EQ(e.words()[3], 0u);
    EXPECT_FALSE(c.find(1));
}

TEST(SetAssoc, HashedIndexSpreadsStridedLines)
{
    // L2 slices see lines strided by numCores; the hashed index must
    // not collapse them into few sets.
    SetAssocCache<int, true> c(64, 4, 8);
    std::vector<int> seen(64, 0);
    for (LineAddr l = 0; l < 256; ++l)
        ++seen[c.setIndex(l * 64)]; // stride 64 like a 64-core system
    int used = 0;
    for (int s : seen)
        used += s > 0;
    EXPECT_GT(used, 48); // well spread
}

TEST(SetAssoc, WordsSizedPerLine)
{
    L1Cache c(4, 2, 4);
    EXPECT_EQ(c.victimFor(0).wordsPerLine(), 4u);
    EXPECT_EQ(c.wordsPerLine(), 4u);
}

TEST(SetAssoc, NullHandleTestsFalse)
{
    L1Cache c(4, 2, 8);
    L1Cache::Entry null_handle;
    EXPECT_FALSE(null_handle);
    EXPECT_EQ(null_handle, c.find(0x7)); // miss returns a null handle
}

TEST(SetAssoc, ArenaSlicesAreDisjointAndContiguous)
{
    // The data arena hands each (set, way) slot its own
    // wordsPerLine-sized slice; neighbors in the same set are
    // adjacent (structure-of-arrays layout).
    L1Cache c(4, 2, 8);
    auto a = c.entryAt(1, 0);
    auto b = c.entryAt(1, 1);
    EXPECT_EQ(b.words(), a.words() + 8);
    a.words()[7] = 11;
    b.words()[0] = 22;
    EXPECT_EQ(a.words()[7], 11u);
    EXPECT_EQ(b.words()[0], 22u);
}

TEST(SetAssoc, FillWordsCopiesOneLine)
{
    L1Cache c(4, 2, 4);
    const std::uint64_t src[4] = {1, 2, 3, 4};
    auto e = c.victimFor(0x9);
    e.fillWords(src);
    EXPECT_EQ(e.words()[0], 1u);
    EXPECT_EQ(e.words()[3], 4u);
    e.clearWords();
    EXPECT_EQ(e.words()[0], 0u);
    EXPECT_EQ(e.words()[3], 0u);
}

TEST(SetAssoc, ForEachVisitsEverySlot)
{
    L1Cache c(4, 2, 8);
    auto e = c.victimFor(2);
    e.setValid(true);
    e.setTag(2);
    std::size_t slots = 0, valid = 0;
    c.forEach([&](L1Cache::Entry h) {
        ++slots;
        valid += h.valid();
    });
    EXPECT_EQ(slots, 8u);
    EXPECT_EQ(valid, 1u);
}

/** Expect @p c's O(1) validCount() to equal a recount of its valid
 * bits, and forEachValid to visit exactly the valid slots, in the
 * order forEach visits them. */
void
expectValidCountExact(L1Cache &c)
{
    std::vector<L1Cache::Entry> valid, visited;
    c.forEach([&](L1Cache::Entry e) {
        if (e.valid())
            valid.push_back(e);
    });
    c.forEachValid([&](L1Cache::Entry e) { visited.push_back(e); });
    EXPECT_EQ(c.validCount(), valid.size());
    EXPECT_EQ(visited, valid);
}

TEST(SetAssoc, ValidCountMatchesRecount)
{
    // Random fills, invalidates and restores in both directions, on
    // 12 slots (the valid bytes end inside an 8-byte scan word).
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Rng rng(seed);
        L1Cache a(4, 3, 2), b(4, 3, 2);
        for (int step = 0; step < 400; ++step) {
            L1Cache &c = rng.chance(0.5) ? a : b;
            const double op = rng.uniform();
            if (op < 0.5) {
                const LineAddr line = rng.below(32);
                if (!c.find(line)) {
                    auto e = c.victimFor(line);
                    e.setValid(true);
                    e.setTag(line);
                    e.setLastAccess(step + 1);
                }
            } else if (op < 0.85) {
                c.invalidate(c.entryAt(rng.below(4), rng.below(3)));
            } else {
                c.restoreFrom(&c == &a ? b : a);
                for (std::uint32_t set = 0; set < 4; ++set) {
                    for (std::uint32_t way = 0; way < 3; ++way) {
                        const auto x = a.entryAt(set, way);
                        const auto y = b.entryAt(set, way);
                        EXPECT_EQ(x.valid(), y.valid());
                        EXPECT_EQ(x.tag(), y.tag());
                        EXPECT_EQ(x.lastAccess(), y.lastAccess());
                    }
                }
            }
            expectValidCountExact(a);
            expectValidCountExact(b);
        }
    }
}

TEST(MissTracker, ColdByDefault)
{
    MissStatusTracker t;
    EXPECT_EQ(t.classify(0x10, false, false), MissType::Cold);
    EXPECT_EQ(t.classify(0x10, true, false), MissType::Cold);
}

TEST(MissTracker, CapacityAfterEviction)
{
    MissStatusTracker t;
    t.onEviction(0x10);
    EXPECT_EQ(t.classify(0x10, false, false), MissType::Capacity);
}

TEST(MissTracker, SharingAfterInvalidation)
{
    MissStatusTracker t;
    t.onInvalidation(0x10);
    EXPECT_EQ(t.classify(0x10, true, false), MissType::Sharing);
}

TEST(MissTracker, WordAfterRemoteAccess)
{
    MissStatusTracker t;
    t.onRemoteAccess(0x10);
    EXPECT_EQ(t.classify(0x10, false, false), MissType::Word);
}

TEST(MissTracker, UpgradeWinsOverHistory)
{
    MissStatusTracker t;
    t.onEviction(0x10);
    // Present read-only + exclusive request => upgrade regardless.
    EXPECT_EQ(t.classify(0x10, true, true), MissType::Upgrade);
    // A read with the line present read-only is not a miss; classify
    // is never called that way, but history still applies when absent.
    EXPECT_EQ(t.classify(0x10, false, false), MissType::Capacity);
}

TEST(MissTracker, LatestEventWins)
{
    MissStatusTracker t;
    t.onEviction(0x10);
    t.onRemoteAccess(0x10);
    EXPECT_EQ(t.classify(0x10, false, false), MissType::Word);
    t.onInvalidation(0x10);
    EXPECT_EQ(t.classify(0x10, false, false), MissType::Sharing);
}

TEST(MissTracker, LinesIndependent)
{
    MissStatusTracker t;
    t.onEviction(0x10);
    t.onInvalidation(0x20);
    EXPECT_EQ(t.classify(0x10, false, false), MissType::Capacity);
    EXPECT_EQ(t.classify(0x20, false, false), MissType::Sharing);
    EXPECT_EQ(t.classify(0x30, false, false), MissType::Cold);
    EXPECT_EQ(t.trackedLines(), 2u);
}

TEST(MissTracker, ReserveDoesNotChangeBehavior)
{
    MissStatusTracker t(4096);
    EXPECT_EQ(t.trackedLines(), 0u);
    t.onEviction(0x10);
    EXPECT_EQ(t.classify(0x10, false, false), MissType::Capacity);
    EXPECT_EQ(t.trackedLines(), 1u);
}

} // namespace
} // namespace lacc
