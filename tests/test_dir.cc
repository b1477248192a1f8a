/**
 * @file
 * Unit tests for directory entries: ACKwise_p's overflow bit over the
 * holder set, the full-map baseline's lack of one, the grant-ordered
 * holder set, and the entry footprint — bytes per L2 slot and no heap
 * allocation on fills, for every protocol and classifier.
 */

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/limited_classifier.hh"
#include "count_allocations.hh"
#include "protocol/core_vec.hh"
#include "protocol/protocol.hh"
#include "system/multicore.hh"

namespace lacc {
namespace {

/** The overflow limit of an ACKwise directory with @p pointers. */
std::uint32_t
ackwiseLimit(std::uint32_t pointers)
{
    SystemConfig cfg;
    cfg.directoryKind = DirectoryKind::Ackwise;
    cfg.ackwisePointers = pointers;
    return overflowLimit(cfg);
}

/** The overflow limit of a full-map directory. */
std::uint32_t
fullMapLimit()
{
    SystemConfig cfg;
    cfg.directoryKind = DirectoryKind::FullMap;
    return overflowLimit(cfg);
}

TEST(Ackwise, ExactTrackingBelowP)
{
    L2Meta m;
    for (const CoreId c : {3, 7, 11})
        m.addHolder(c, ackwiseLimit(4));
    EXPECT_FALSE(m.overflowed);
    EXPECT_EQ(m.holders.size(), 3u);
    EXPECT_TRUE(m.holders.contains(7));
    EXPECT_FALSE(m.holders.contains(5));
}

TEST(Ackwise, AddIdempotent)
{
    // A core already holding the line (its other L1's copy) is one
    // holder, not two, so it cannot push the entry over p.
    L2Meta m;
    m.addHolder(3, ackwiseLimit(1));
    m.addHolder(3, ackwiseLimit(1));
    EXPECT_EQ(m.holders.size(), 1u);
    EXPECT_FALSE(m.overflowed);
}

TEST(Ackwise, OverflowAtPPlusOne)
{
    L2Meta m;
    m.addHolder(0, ackwiseLimit(2));
    m.addHolder(1, ackwiseLimit(2));
    EXPECT_FALSE(m.overflowed);
    m.addHolder(2, ackwiseLimit(2));
    EXPECT_TRUE(m.overflowed);
    EXPECT_EQ(m.holders.size(), 3u);
}

TEST(Ackwise, OverflowCountsFurtherAdds)
{
    // Identities are lost, but acks are still due from every actual
    // holder.
    L2Meta m;
    for (CoreId c = 0; c < 10; ++c)
        m.addHolder(c, ackwiseLimit(2));
    EXPECT_TRUE(m.overflowed);
    EXPECT_EQ(m.holders.size(), 10u);
}

TEST(Ackwise, RemoveTrackedInExactMode)
{
    L2Meta m;
    m.addHolder(1, ackwiseLimit(4));
    m.addHolder(2, ackwiseLimit(4));
    m.dropHolder(1);
    EXPECT_EQ(m.holders.size(), 1u);
    EXPECT_FALSE(m.holders.contains(1));
    EXPECT_TRUE(m.holders.contains(2));
    EXPECT_FALSE(m.overflowed);
}

TEST(Ackwise, RemoveUntrackedInOverflowDecrements)
{
    L2Meta m;
    for (const CoreId c : {0, 1, 2})
        m.addHolder(c, ackwiseLimit(2));
    m.dropHolder(2);
    EXPECT_EQ(m.holders.size(), 2u);
    EXPECT_TRUE(m.overflowed) << "identities are lost until empty";
}

TEST(Ackwise, OverflowClearsWhenEmpty)
{
    L2Meta m;
    for (const CoreId c : {0, 1, 2})
        m.addHolder(c, ackwiseLimit(2));
    for (const CoreId c : {0, 1, 2})
        m.dropHolder(c);
    EXPECT_TRUE(m.holders.empty());
    EXPECT_FALSE(m.overflowed);
    // Exact mode works again.
    m.addHolder(9, ackwiseLimit(2));
    EXPECT_FALSE(m.overflowed);
}

TEST(Ackwise, ClearResets)
{
    // An L2 eviction's invalidate() resets the entry, overflow bit
    // included.
    L2Meta m;
    for (const CoreId c : {0, 1, 2})
        m.addHolder(c, ackwiseLimit(2));
    m.dstate = DirState::Shared;
    resetCacheMeta(m);
    EXPECT_TRUE(m.holders.empty());
    EXPECT_FALSE(m.overflowed);
    EXPECT_EQ(m.owner(), kInvalidCore);
}

TEST(Ackwise, ReusesFreedSlot)
{
    // A holder leaving below p frees room: the next one is tracked.
    L2Meta m;
    m.addHolder(0, ackwiseLimit(2));
    m.addHolder(1, ackwiseLimit(2));
    m.dropHolder(0);
    m.addHolder(2, ackwiseLimit(2));
    EXPECT_FALSE(m.overflowed);
    EXPECT_EQ(m.holders.size(), 2u);
}

TEST(FullMap, NeverOverflows)
{
    L2Meta m;
    for (CoreId c = 0; c < 128; ++c)
        m.addHolder(c, fullMapLimit());
    EXPECT_EQ(m.holders.size(), 128u);
    EXPECT_FALSE(m.overflowed);
}

TEST(FullMap, IsFullMapFlag)
{
    // The directory kind alone decides whether p applies.
    EXPECT_EQ(ackwiseLimit(4), 4u);
    EXPECT_EQ(fullMapLimit(), std::numeric_limits<std::uint32_t>::max());
}

TEST(DirEntry, OwnerIsTheSoleHolderUnderExclusive)
{
    L2Meta m;
    m.addHolder(5, ackwiseLimit(4));
    EXPECT_EQ(m.owner(), kInvalidCore);
    m.dstate = DirState::Exclusive;
    EXPECT_EQ(m.owner(), 5);
    m.dstate = DirState::Shared;
    EXPECT_EQ(m.owner(), kInvalidCore);
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
    // record included, is 72 of the 128 bytes allowed per L2 slot. A
    // full map adds nothing: the slot's aux block is the classifier
    // record alone.
    const SystemConfig cfg;
    const std::uint32_t record = LocalityClassifier::recordBytes(cfg);
    EXPECT_EQ(sizeof(L2Meta), 48u);
    EXPECT_EQ(record, 3 * sizeof(LimitedSlot));
    EXPECT_EQ(sizeof(L2Meta) + record, 72u);
    EXPECT_LE(sizeof(L2Meta) + record, 128u);
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
