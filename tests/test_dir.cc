/**
 * @file
 * Unit tests for directory entries: ACKwise_p exact/overflow
 * semantics, the full-map baseline, the grant-ordered holder set, and
 * the entry footprint — bytes per L2 slot and no heap allocation on
 * fills, for every protocol and classifier.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/limited_classifier.hh"
#include "count_allocations.hh"
#include "protocol/core_vec.hh"
#include "protocol/protocol.hh"
#include "protocol/sharer_list.hh"
#include "system/multicore.hh"

namespace lacc {
namespace {

/** A standalone sharer list: the inline state plus its bit words. */
struct OwnedList
{
    SharerState state;
    std::vector<std::uint64_t> bits;

    SharerList list() { return SharerList(state, bits.data()); }
};

SharerList
makeAckwise(OwnedList &o, std::uint32_t pointers)
{
    o.state = SharerState::ackwise(pointers);
    return o.list();
}

SharerList
makeFullMap(OwnedList &o, std::uint32_t num_cores)
{
    o.state = SharerState::fullMap(num_cores);
    o.bits.assign(SharerState::fullMapWords(num_cores), 0);
    return o.list();
}

TEST(Ackwise, ExactTrackingBelowP)
{
    OwnedList o;
    auto s = makeAckwise(o, 4);
    s.add(3);
    s.add(7);
    s.add(11);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_FALSE(s.overflowed());
    EXPECT_TRUE(s.contains(3));
    EXPECT_TRUE(s.contains(7));
    EXPECT_TRUE(s.contains(11));
    EXPECT_FALSE(s.contains(5));
}

TEST(Ackwise, AddIdempotent)
{
    OwnedList o;
    auto s = makeAckwise(o, 4);
    s.add(3);
    s.add(3);
    EXPECT_EQ(s.count(), 1u);
}

TEST(Ackwise, OverflowAtPPlusOne)
{
    OwnedList o;
    auto s = makeAckwise(o, 2);
    s.add(0);
    s.add(1);
    EXPECT_FALSE(s.overflowed());
    s.add(2);
    EXPECT_TRUE(s.overflowed());
    EXPECT_EQ(s.count(), 3u);
    // Pointer-resident identities survive; the third is untracked.
    EXPECT_TRUE(s.contains(0));
    EXPECT_TRUE(s.contains(1));
    EXPECT_FALSE(s.contains(2));
}

TEST(Ackwise, OverflowCountsFurtherAdds)
{
    OwnedList o;
    auto s = makeAckwise(o, 2);
    for (CoreId c = 0; c < 10; ++c)
        s.add(c);
    EXPECT_EQ(s.count(), 10u);
    EXPECT_TRUE(s.overflowed());
}

TEST(Ackwise, RemoveTrackedInExactMode)
{
    OwnedList o;
    auto s = makeAckwise(o, 4);
    s.add(1);
    s.add(2);
    s.remove(1);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_FALSE(s.contains(1));
    EXPECT_TRUE(s.contains(2));
}

TEST(Ackwise, RemoveUntrackedInOverflowDecrements)
{
    OwnedList o;
    auto s = makeAckwise(o, 2);
    s.add(0);
    s.add(1);
    s.add(2); // overflow; core 2 untracked
    s.remove(2);
    EXPECT_EQ(s.count(), 2u);
    EXPECT_TRUE(s.overflowed()) << "identities are lost until empty";
}

TEST(Ackwise, OverflowClearsWhenEmpty)
{
    OwnedList o;
    auto s = makeAckwise(o, 2);
    s.add(0);
    s.add(1);
    s.add(2);
    s.remove(0);
    s.remove(1);
    s.remove(2);
    EXPECT_EQ(s.count(), 0u);
    EXPECT_FALSE(s.overflowed());
    // Exact mode works again.
    s.add(9);
    EXPECT_TRUE(s.contains(9));
    EXPECT_FALSE(s.overflowed());
}

TEST(Ackwise, ClearResets)
{
    OwnedList o;
    auto s = makeAckwise(o, 2);
    s.add(0);
    s.add(1);
    s.add(2);
    s.clear();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_FALSE(s.overflowed());
    EXPECT_TRUE(s.tracked().empty());
}

TEST(Ackwise, ForEachTrackedVisitsPointerResidents)
{
    OwnedList o;
    auto s = makeAckwise(o, 3);
    s.add(5);
    s.add(9);
    auto t = s.tracked();
    ASSERT_EQ(t.size(), 2u);
    EXPECT_NE(std::find(t.begin(), t.end(), 5), t.end());
    EXPECT_NE(std::find(t.begin(), t.end(), 9), t.end());
}

TEST(Ackwise, ReusesFreedSlot)
{
    OwnedList o;
    auto s = makeAckwise(o, 2);
    s.add(0);
    s.add(1);
    s.remove(0);
    s.add(2); // slot freed by 0
    EXPECT_FALSE(s.overflowed());
    EXPECT_TRUE(s.contains(2));
    EXPECT_EQ(s.count(), 2u);
}

TEST(FullMap, NeverOverflows)
{
    OwnedList o;
    auto s = makeFullMap(o, 128);
    for (CoreId c = 0; c < 128; ++c)
        s.add(c);
    EXPECT_EQ(s.count(), 128u);
    EXPECT_FALSE(s.overflowed());
    for (CoreId c = 0; c < 128; ++c)
        EXPECT_TRUE(s.contains(c));
}

TEST(FullMap, AddRemove)
{
    OwnedList o;
    auto s = makeFullMap(o, 64);
    s.add(63);
    s.add(0);
    s.add(63);
    EXPECT_EQ(s.count(), 2u);
    s.remove(63);
    EXPECT_FALSE(s.contains(63));
    EXPECT_TRUE(s.contains(0));
    EXPECT_EQ(s.count(), 1u);
}

TEST(FullMap, TrackedListsAllSharers)
{
    OwnedList o;
    auto s = makeFullMap(o, 70);
    s.add(0);
    s.add(64);
    s.add(69);
    auto t = s.tracked();
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[0], 0);
    EXPECT_EQ(t[1], 64);
    EXPECT_EQ(t[2], 69);
}

TEST(FullMap, IsFullMapFlag)
{
    OwnedList a, b;
    EXPECT_TRUE(makeFullMap(a, 4).isFullMap());
    EXPECT_FALSE(makeAckwise(b, 4).isFullMap());
}


TEST(Ackwise, TrackedInIdOrder)
{
    // The pointer slots stay sorted whatever the grant order, so
    // forEachTracked visits identities in id order, as a full-map
    // list does.
    OwnedList o;
    auto s = makeAckwise(o, 4);
    for (const CoreId c : {9, 3, 6})
        s.add(c);
    EXPECT_EQ(s.tracked(), (std::vector<CoreId>{3, 6, 9}));
    s.remove(6);
    s.add(1);
    EXPECT_EQ(s.tracked(), (std::vector<CoreId>{1, 3, 9}));
}

// ---------------------------------------------------------------------------
// HolderVec: the grant-ordered small-buffer set behind L2Meta::holders.
// ---------------------------------------------------------------------------

TEST(SmallCoreVec, HolderFlavorPreservesGrantOrder)
{
    // Invalidation fan-out unicasts holders in grant order; with link
    // contention the order shifts ack timing, so the holder set must
    // never sort (protocol/core_vec.hh).
    HolderVec v;
    v.insert(9);
    v.insert(3);
    v.insert(6);
    EXPECT_EQ(v[0], 9);
    EXPECT_EQ(v[1], 3);
    EXPECT_EQ(v[2], 6);
    EXPECT_TRUE(v.erase(3));
    EXPECT_EQ(v[0], 9);
    EXPECT_EQ(v[1], 6);
    EXPECT_TRUE(v.contains(9));
    EXPECT_FALSE(v.contains(3));
}

TEST(SmallCoreVec, SpillsPastInlineCapacityAndClears)
{
    for (const bool front_heavy : {false, true}) {
        HolderVec v;
        const std::uint32_t n = HolderVec::kInlineCap + 5;
        for (std::uint32_t i = 0; i < n; ++i)
            v.insert(static_cast<CoreId>(front_heavy ? n - 1 - i : i));
        EXPECT_EQ(v.size(), n);
        for (std::uint32_t i = 0; i < n; ++i)
            EXPECT_TRUE(v.contains(static_cast<CoreId>(i)));
        // Erase back below the inline capacity and keep going.
        for (std::uint32_t i = 0; i < 6; ++i)
            EXPECT_TRUE(v.erase(static_cast<CoreId>(i)));
        EXPECT_EQ(v.size(), n - 6);
        EXPECT_FALSE(v.contains(0));
        EXPECT_TRUE(v.contains(static_cast<CoreId>(n - 1)));
        v.clear();
        EXPECT_TRUE(v.empty());
        EXPECT_FALSE(v.contains(7));
    }
}

TEST(HolderVec, OrderSurvivesSpillAndCopies)
{
    // Grant order must survive the inline -> spill move, the move back
    // below kInlineCap, and copies in both representations (the
    // controllers snapshot holders by assignment).
    std::vector<CoreId> expect;
    HolderVec v;
    for (CoreId c = 20; c > 0; --c) {
        v.insert(c);
        expect.push_back(c);
    }
    const HolderVec spilled = v;
    EXPECT_TRUE(std::equal(spilled.begin(), spilled.end(),
                           expect.begin(), expect.end()));
    for (CoreId c = 1; c <= 12; ++c) {
        v.erase(c);
        expect.erase(std::find(expect.begin(), expect.end(), c));
    }
    ASSERT_EQ(v.size(), HolderVec::kInlineCap);
    EXPECT_TRUE(std::equal(v.begin(), v.end(), expect.begin(),
                           expect.end()));
    HolderVec back = spilled; // shrink a spilled copy by assignment
    back = v;
    EXPECT_TRUE(std::equal(back.begin(), back.end(), expect.begin(),
                           expect.end()));
    EXPECT_EQ(sizeof(HolderVec), 32u);
}

// ---------------------------------------------------------------------------
// Directory-entry footprint.
// ---------------------------------------------------------------------------

TEST(Footprint, DefaultEntryFitsBudget)
{
    // ACKwise_4 + Limited_3: the whole directory entry, classifier
    // record included, in at most 128 bytes per L2 slot.
    const SystemConfig cfg;
    const DirLayout layout(cfg);
    EXPECT_EQ(layout.sharerBytes, 0u);
    EXPECT_EQ(layout.recordBytes, 3 * sizeof(LimitedSlot));
    EXPECT_LE(sizeof(L2Meta) + layout.bytes(), 128u);
}

/**
 * Heap allocations made while 31 L2 misses fill @p proto x @p k
 * directory entries on 4 cores with @p l2_kb KB 2-way slices.
 */
std::uint64_t
allocationsDuringFills(const std::string &proto, ClassifierKind k,
                       std::uint32_t l2_kb)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.meshWidth = 2;
    cfg.numMemControllers = 2;
    cfg.l2SizeKB = l2_kb;
    cfg.l2Assoc = 2;
    cfg.classifierKind = k;
    applyProtocolName(cfg, proto);
    Multicore m(cfg);
    m.setFunctionalChecks(false);
    const Addr page = Addr{1} << 32;
    m.testAccess(0, page, false); // classify the page
    const std::uint64_t fills = m.stats().l2.fills;
    const std::uint64_t before = gAllocations.load();
    for (Addr line = 1; line < 32; ++line)
        m.testAccess(static_cast<CoreId>(line % 4),
                     page + line * cfg.lineSize, line % 3 == 0);
    const std::uint64_t allocations = gAllocations.load() - before;
    EXPECT_EQ(m.stats().l2.fills - fills, 31u);
    if (l2_kb == 1) {
        EXPECT_GT(m.stats().protocol.l2Evictions, 0u); // slots reused
    }
    return allocations;
}

TEST(Footprint, FillsAllocateNothing)
{
    // Fills into never-used slots (256 KB slices) and, through L2
    // evictions, into reused ones (1 KB slices), for every factory
    // protocol and classifier: none may touch the heap.
    const ClassifierKind kinds[] = {
        ClassifierKind::Complete, ClassifierKind::Limited,
        ClassifierKind::Timestamp, ClassifierKind::AlwaysPrivate};
    for (const auto &proto : protocolNames()) {
        for (const ClassifierKind k : kinds) {
            for (const std::uint32_t l2_kb : {256u, 1u}) {
                SCOPED_TRACE(proto + "/" + classifierKindName(k) + "/" +
                             std::to_string(l2_kb) + " KB");
                EXPECT_EQ(allocationsDuringFills(proto, k, l2_kb), 0u);
            }
        }
    }
}

} // namespace
} // namespace lacc
