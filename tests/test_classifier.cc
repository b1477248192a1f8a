/**
 * @file
 * Unit tests for the locality classifiers: the private/remote state
 * machine of Fig 4, RAT-level dynamics (§3.3), the Limited_k
 * allocation/vote/replacement protocol (§3.4), the Timestamp check
 * (§3.2), and the one-way restriction (§3.7).
 */

#include <vector>

#include <gtest/gtest.h>

#include "core/classifier.hh"
#include "core/complete_classifier.hh"
#include "core/limited_classifier.hh"
#include "core/timestamp_classifier.hh"

namespace lacc {
namespace {

SystemConfig
cfg4()
{
    SystemConfig c;
    c.numCores = 8;
    c.meshWidth = 4;
    c.clusterSize = 4;
    c.numMemControllers = 2;
    c.pct = 4;
    c.ratMax = 16;
    c.nRatLevels = 2;
    c.classifierK = 3;
    return c;
}

/** Storage for one line's record, reset by @p cls; `*st` is the record. */
struct Record
{
    explicit Record(const LocalityClassifier &cls) : bytes(1024)
    {
        cls.resetRecord(bytes.data());
    }

    std::byte *operator*() { return bytes.data(); }

    std::vector<std::byte> bytes; //!< covers every classifier at 8 cores
};

RemoteAccessContext
ctxWithInvalidWay(Cycle now = 100)
{
    return RemoteAccessContext{now, true, 0};
}

RemoteAccessContext
ctxFullSet(Cycle now = 100, Cycle min_last = 50)
{
    return RemoteAccessContext{now, false, min_last};
}

// ---------------------------------------------------------------------
// Complete classifier
// ---------------------------------------------------------------------

TEST(Complete, AllCoresStartPrivate)
{
    CompleteClassifier cls(cfg4(), false);
    Record st(cls);
    for (CoreId c = 0; c < 8; ++c)
        EXPECT_EQ(cls.classify(*st, c), Mode::Private);
}

TEST(Complete, DemotionNeedsLowUtilization)
{
    CompleteClassifier cls(cfg4(), false);
    Record st(cls);
    // privateUtil 4 >= PCT: stays private.
    EXPECT_EQ(cls.onPrivateRemoval(*st, 0, 4, RemovalKind::Eviction),
              Mode::Private);
    // privateUtil 3 < PCT: demoted.
    EXPECT_EQ(cls.onPrivateRemoval(*st, 0, 3, RemovalKind::Eviction),
              Mode::Remote);
    EXPECT_EQ(cls.classify(*st, 0), Mode::Remote);
}

TEST(Complete, RemoteUtilCountsTowardRemovalClassification)
{
    // §3.2: classification at removal uses private + remote util.
    CompleteClassifier cls(cfg4(), false);
    Record st(cls);
    // Demote core 0 first.
    cls.onPrivateRemoval(*st, 0, 1, RemovalKind::Invalidation);
    // Three remote accesses, then promotion on the 4th (PCT=4, invalid
    // way short-cut).
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(cls.onRemoteAccess(*st, 0, ctxWithInvalidWay()));
    EXPECT_TRUE(cls.onRemoteAccess(*st, 0, ctxWithInvalidWay()));
    cls.onPrivateGrant(*st, 0, 200);
    // Even with private util 1, remote(4) + private(1) >= PCT.
    EXPECT_EQ(cls.onPrivateRemoval(*st, 0, 1, RemovalKind::Invalidation),
              Mode::Private);
}

TEST(Complete, EpochConsumedAfterRemoval)
{
    CompleteClassifier cls(cfg4(), false);
    Record st(cls);
    cls.onPrivateRemoval(*st, 0, 1, RemovalKind::Invalidation); // demote
    for (int i = 0; i < 4; ++i)
        cls.onRemoteAccess(*st, 0, ctxWithInvalidWay());
    cls.onPrivateGrant(*st, 0, 200);
    cls.onPrivateRemoval(*st, 0, 1, RemovalKind::Invalidation); // stays P
    // Epoch consumed: a following removal with low util demotes again.
    EXPECT_EQ(cls.onPrivateRemoval(*st, 0, 2, RemovalKind::Invalidation),
              Mode::Remote);
}

TEST(Complete, EvictionDemotionRaisesRat)
{
    auto cfg = cfg4(); // RAT levels: 4, 16
    CompleteClassifier cls(cfg, false);
    Record st(cls);
    cls.onPrivateRemoval(*st, 0, 1, RemovalKind::Eviction); // -> level 1
    const auto rec = cls.peek(*st, 0);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->ratLevel, 1u);
    // Promotion now needs RATmax = 16 accesses (no invalid way).
    for (int i = 0; i < 15; ++i)
        EXPECT_FALSE(cls.onRemoteAccess(*st, 0, ctxFullSet()));
    EXPECT_TRUE(cls.onRemoteAccess(*st, 0, ctxFullSet()));
}

TEST(Complete, InvalidationDemotionKeepsRat)
{
    CompleteClassifier cls(cfg4(), false);
    Record st(cls);
    cls.onPrivateRemoval(*st, 0, 1, RemovalKind::Invalidation);
    EXPECT_EQ(cls.peek(*st, 0)->ratLevel, 0u);
    // Promotion at PCT = 4.
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(cls.onRemoteAccess(*st, 0, ctxFullSet()));
    EXPECT_TRUE(cls.onRemoteAccess(*st, 0, ctxFullSet()));
}

TEST(Complete, ShortCutPromotesAtPctDespiteRat)
{
    CompleteClassifier cls(cfg4(), false);
    Record st(cls);
    cls.onPrivateRemoval(*st, 0, 1, RemovalKind::Eviction); // RAT -> 16
    // With an invalid way in the requester's set, PCT applies (§3.3).
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(cls.onRemoteAccess(*st, 0, ctxWithInvalidWay()));
    EXPECT_TRUE(cls.onRemoteAccess(*st, 0, ctxWithInvalidWay()));
}

TEST(Complete, RatResetsWhenClassifiedPrivate)
{
    CompleteClassifier cls(cfg4(), false);
    Record st(cls);
    cls.onPrivateRemoval(*st, 0, 1, RemovalKind::Eviction); // level 1
    EXPECT_EQ(cls.peek(*st, 0)->ratLevel, 1u);
    // Earn promotion, then classify private at the next removal.
    for (int i = 0; i < 4; ++i)
        cls.onRemoteAccess(*st, 0, ctxWithInvalidWay());
    cls.onPrivateGrant(*st, 0, 100);
    cls.onPrivateRemoval(*st, 0, 8, RemovalKind::Eviction);
    EXPECT_EQ(cls.peek(*st, 0)->ratLevel, 0u) << "RAT reset (§3.3)";
}

TEST(Complete, RatSaturatesAtMaxLevel)
{
    auto cfg = cfg4();
    cfg.nRatLevels = 4; // levels 4, 8, 12, 16
    CompleteClassifier cls(cfg, false);
    Record st(cls);
    for (int i = 0; i < 10; ++i)
        cls.onPrivateRemoval(*st, 0, 1, RemovalKind::Eviction);
    EXPECT_EQ(cls.peek(*st, 0)->ratLevel, 3u);
}

TEST(Complete, WriteByOtherResetsRemoteUtil)
{
    CompleteClassifier cls(cfg4(), false);
    Record st(cls);
    cls.onPrivateRemoval(*st, 0, 1, RemovalKind::Invalidation); // demote
    cls.onRemoteAccess(*st, 0, ctxWithInvalidWay());
    cls.onRemoteAccess(*st, 0, ctxWithInvalidWay());
    EXPECT_EQ(cls.peek(*st, 0)->remoteUtil, 2u);
    cls.onWriteByOther(*st, 5);
    EXPECT_EQ(cls.peek(*st, 0)->remoteUtil, 0u);
    EXPECT_FALSE(cls.peek(*st, 0)->active);
}

TEST(Complete, WriterKeepsOwnUtil)
{
    CompleteClassifier cls(cfg4(), false);
    Record st(cls);
    cls.onPrivateRemoval(*st, 3, 1, RemovalKind::Invalidation);
    cls.onRemoteAccess(*st, 3, ctxWithInvalidWay());
    cls.onWriteByOther(*st, 3); // 3 is the writer itself
    EXPECT_EQ(cls.peek(*st, 3)->remoteUtil, 1u);
}

TEST(Complete, OneWayNeverPromotes)
{
    CompleteClassifier cls(cfg4(), true);
    Record st(cls);
    cls.onPrivateRemoval(*st, 0, 1, RemovalKind::Invalidation);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(cls.onRemoteAccess(*st, 0, ctxWithInvalidWay()));
    EXPECT_EQ(cls.classify(*st, 0), Mode::Remote);
}

TEST(Complete, LearningShortcutSeedsFromMajority)
{
    auto cfg = cfg4();
    cfg.completeLearningShortcut = true;
    CompleteClassifier cls(cfg, false);
    Record st(cls);
    // Cores 0-2 touch the line and end up remote.
    for (CoreId c = 0; c < 3; ++c) {
        cls.classify(*st, c);
        cls.onPrivateGrant(*st, c, 10);
        cls.onPrivateRemoval(*st, c, 1, RemovalKind::Invalidation);
    }
    // A newcomer is seeded with the majority (Remote) mode instead of
    // starting private.
    EXPECT_EQ(cls.classify(*st, 6), Mode::Remote);
    // But only on its first touch: once seen, it keeps its own state.
    for (int i = 0; i < 4; ++i)
        cls.onRemoteAccess(*st, 6, ctxWithInvalidWay());
    EXPECT_EQ(cls.classify(*st, 6), Mode::Private);
}

TEST(Complete, ShortcutDisabledKeepsPaperBehavior)
{
    CompleteClassifier cls(cfg4(), false); // default: no short-cut
    Record st(cls);
    for (CoreId c = 0; c < 3; ++c) {
        cls.classify(*st, c);
        cls.onPrivateGrant(*st, c, 10);
        cls.onPrivateRemoval(*st, c, 1, RemovalKind::Invalidation);
    }
    EXPECT_EQ(cls.classify(*st, 6), Mode::Private)
        << "every core starts private in the paper's Complete scheme";
}

// ---------------------------------------------------------------------
// Limited_k classifier
// ---------------------------------------------------------------------

TEST(Limited, FreeEntriesAllocatePrivate)
{
    LimitedClassifier cls(cfg4(), false);
    Record st(cls);
    EXPECT_EQ(cls.classify(*st, 0), Mode::Private);
    EXPECT_EQ(cls.classify(*st, 1), Mode::Private);
    EXPECT_EQ(cls.classify(*st, 2), Mode::Private);
    EXPECT_TRUE(cls.peek(*st, 0).has_value());
    EXPECT_TRUE(cls.peek(*st, 2).has_value());
}

TEST(Limited, UntrackedUsesMajorityVote)
{
    LimitedClassifier cls(cfg4(), false);
    Record st(cls);
    // Track 0,1,2 as active private sharers.
    for (CoreId c = 0; c < 3; ++c) {
        cls.classify(*st, c);
        cls.onPrivateGrant(*st, c, 10);
    }
    // Core 7 untracked, no free/inactive entry: majority P -> Private.
    EXPECT_EQ(cls.classify(*st, 7), Mode::Private);
    EXPECT_FALSE(cls.peek(*st, 7).has_value()) << "list unchanged (§3.4)";
}

TEST(Limited, MajorityRemoteSeedsRemote)
{
    LimitedClassifier cls(cfg4(), false);
    Record st(cls);
    // Track 0,1,2; demote all three (invalidation, low util), which
    // also makes them inactive.
    for (CoreId c = 0; c < 3; ++c) {
        cls.classify(*st, c);
        cls.onPrivateGrant(*st, c, 10);
        cls.onPrivateRemoval(*st, c, 1, RemovalKind::Invalidation);
    }
    // Core 7 replaces an inactive entry and inherits the majority
    // (Remote) mode.
    EXPECT_EQ(cls.classify(*st, 7), Mode::Remote);
    ASSERT_TRUE(cls.peek(*st, 7).has_value());
    EXPECT_EQ(cls.peek(*st, 7)->mode, Mode::Remote);
}

TEST(Limited, ActiveSharersNotReplaced)
{
    LimitedClassifier cls(cfg4(), false);
    Record st(cls);
    for (CoreId c = 0; c < 3; ++c) {
        cls.classify(*st, c);
        cls.onPrivateGrant(*st, c, 10); // active private sharers
    }
    cls.classify(*st, 7);
    EXPECT_FALSE(cls.peek(*st, 7).has_value());
    // The original three are still tracked.
    for (CoreId c = 0; c < 3; ++c)
        EXPECT_TRUE(cls.peek(*st, c).has_value());
}

TEST(Limited, InactivePrivateReplaced)
{
    LimitedClassifier cls(cfg4(), false);
    Record st(cls);
    for (CoreId c = 0; c < 3; ++c) {
        cls.classify(*st, c);
        cls.onPrivateGrant(*st, c, 10);
    }
    // Core 1 evicted with good utilization: stays private but becomes
    // inactive -> replacement candidate.
    cls.onPrivateRemoval(*st, 1, 8, RemovalKind::Eviction);
    EXPECT_EQ(cls.classify(*st, 7), Mode::Private); // majority P
    EXPECT_TRUE(cls.peek(*st, 7).has_value());
    EXPECT_FALSE(cls.peek(*st, 1).has_value()) << "core 1 relinquished entry";
}

TEST(Limited, RemoteSharerInactiveAfterWriteByOther)
{
    LimitedClassifier cls(cfg4(), false);
    Record st(cls);
    for (CoreId c = 0; c < 3; ++c) {
        cls.classify(*st, c);
        cls.onPrivateGrant(*st, c, 10);
    }
    // Demote 2 via invalidation, then make it active again through a
    // remote access; a write by another core makes it inactive.
    cls.onPrivateRemoval(*st, 2, 1, RemovalKind::Invalidation);
    cls.onRemoteAccess(*st, 2, ctxFullSet());
    cls.onWriteByOther(*st, 0);
    // Now core 7 can take core 2's entry.
    cls.classify(*st, 7);
    EXPECT_TRUE(cls.peek(*st, 7).has_value());
    EXPECT_FALSE(cls.peek(*st, 2).has_value());
}

TEST(Limited, UntrackedRemovalFallsBackToVote)
{
    LimitedClassifier cls(cfg4(), false);
    Record st(cls);
    for (CoreId c = 0; c < 3; ++c) {
        cls.classify(*st, c);
        cls.onPrivateGrant(*st, c, 10);
    }
    // Core 7 (untracked, majority private) held a line; on its
    // removal no record exists: result is the majority vote.
    EXPECT_EQ(cls.onPrivateRemoval(*st, 7, 1, RemovalKind::Eviction),
              Mode::Private);
}

TEST(Limited, MajorityVoteTieIsPrivate)
{
    auto cfg = cfg4();
    cfg.classifierK = 2;
    LimitedClassifier cls(cfg, false);
    Record st(cls);
    cls.classify(*st, 0);
    cls.onPrivateGrant(*st, 0, 5);
    cls.classify(*st, 1);
    cls.onPrivateGrant(*st, 1, 5);
    cls.onPrivateRemoval(*st, 1, 1, RemovalKind::Invalidation); // R
    // 1 P vs 1 R: tie -> Private.
    EXPECT_EQ(cls.classify(*st, 6), Mode::Private);
}

TEST(Limited, UntrackedRemoteCannotEarnPromotion)
{
    LimitedClassifier cls(cfg4(), false);
    Record st(cls);
    // Fill all 3 entries with *active remote* sharers so there is no
    // replacement candidate but the majority is Remote.
    for (CoreId c = 0; c < 3; ++c) {
        cls.classify(*st, c);
        cls.onPrivateGrant(*st, c, 10);
        cls.onPrivateRemoval(*st, c, 1, RemovalKind::Invalidation);
        cls.onRemoteAccess(*st, c, ctxFullSet()); // active again
    }
    EXPECT_EQ(cls.classify(*st, 7), Mode::Remote);
    for (int i = 0; i < 50; ++i)
        EXPECT_FALSE(cls.onRemoteAccess(*st, 7, ctxWithInvalidWay()));
}

TEST(Limited, PeekFindsOnlyTracked)
{
    LimitedClassifier cls(cfg4(), false);
    Record st(cls);
    cls.classify(*st, 4);
    EXPECT_TRUE(cls.peek(*st, 4).has_value());
    EXPECT_FALSE(cls.peek(*st, 5).has_value());
}

// ---------------------------------------------------------------------
// Timestamp classifier
// ---------------------------------------------------------------------

TEST(Timestamp, PromotionAtPctWhenCheckPasses)
{
    TimestampClassifier cls(cfg4(), false);
    Record st(cls);
    cls.onPrivateRemoval(*st, 0, 1, RemovalKind::Invalidation);
    // Invalid way: check passes trivially; promote on the 4th access.
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(cls.onRemoteAccess(*st, 0, ctxWithInvalidWay()));
    EXPECT_TRUE(cls.onRemoteAccess(*st, 0, ctxWithInvalidWay()));
}

TEST(Timestamp, FailedCheckResetsUtilToOne)
{
    TimestampClassifier cls(cfg4(), false);
    Record st(cls);
    cls.onPrivateRemoval(*st, 0, 1, RemovalKind::Invalidation);

    // Accesses at times 10, 20, 30 but the L1 set is always hotter
    // (min last access beyond the line's last access): util resets to
    // 1 every time, so no promotion ever happens.
    for (int i = 1; i <= 20; ++i) {
        const Cycle now = 10 * i;
        RemoteAccessContext ctx{now, false, /*l1MinLastAccess=*/now - 1};
        EXPECT_FALSE(cls.onRemoteAccess(*st, 0, ctx));
        EXPECT_EQ(cls.peek(*st, 0)->remoteUtil, 1u);
    }
}

TEST(Timestamp, PassingCheckAccrues)
{
    TimestampClassifier cls(cfg4(), false);
    Record st(cls);
    cls.onPrivateRemoval(*st, 0, 1, RemovalKind::Invalidation);
    // The line is re-accessed more recently than the L1 set's LRU
    // line: check passes (lastAccess > minLast).
    Cycle now = 100;
    for (int i = 0; i < 3; ++i) {
        RemoteAccessContext ctx{now, false, /*min=*/50};
        EXPECT_FALSE(cls.onRemoteAccess(*st, 0, ctx));
        now += 10;
    }
    RemoteAccessContext ctx{now, false, 50};
    EXPECT_TRUE(cls.onRemoteAccess(*st, 0, ctx));
}

TEST(Timestamp, FirstAccessWithColdLineFailsCheck)
{
    TimestampClassifier cls(cfg4(), false);
    Record st(cls);
    cls.onPrivateRemoval(*st, 0, 1, RemovalKind::Invalidation);
    // Never accessed before (lastAccess 0) and a fully valid hot set:
    // the check fails; util resets to 1 (not 0).
    RemoteAccessContext ctx{100, false, 50};
    EXPECT_FALSE(cls.onRemoteAccess(*st, 0, ctx));
    EXPECT_EQ(cls.peek(*st, 0)->remoteUtil, 1u);
}

// ---------------------------------------------------------------------
// Factory / baseline
// ---------------------------------------------------------------------

TEST(Factory, CreatesConfiguredKind)
{
    auto cfg = cfg4();
    cfg.classifierKind = ClassifierKind::Complete;
    EXPECT_NE(dynamic_cast<CompleteClassifier *>(
                  LocalityClassifier::create(cfg).get()),
              nullptr);
    cfg.classifierKind = ClassifierKind::Limited;
    EXPECT_NE(dynamic_cast<LimitedClassifier *>(
                  LocalityClassifier::create(cfg).get()),
              nullptr);
    cfg.classifierKind = ClassifierKind::Timestamp;
    EXPECT_NE(dynamic_cast<TimestampClassifier *>(
                  LocalityClassifier::create(cfg).get()),
              nullptr);
    cfg.classifierKind = ClassifierKind::AlwaysPrivate;
    EXPECT_NE(dynamic_cast<AlwaysPrivateClassifier *>(
                  LocalityClassifier::create(cfg).get()),
              nullptr);
}

TEST(Factory, OneWayFlagFollowsProtocolKind)
{
    auto cfg = cfg4();
    cfg.protocolKind = ProtocolKind::AdaptOneWay;
    EXPECT_TRUE(LocalityClassifier::create(cfg)->oneWay());
    cfg.protocolKind = ProtocolKind::Adaptive;
    EXPECT_FALSE(LocalityClassifier::create(cfg)->oneWay());
}

TEST(AlwaysPrivate, NeverDemotes)
{
    AlwaysPrivateClassifier cls(cfg4());
    Record st(cls);
    EXPECT_EQ(cls.classify(*st, 0), Mode::Private);
    EXPECT_EQ(cls.onPrivateRemoval(*st, 0, 0, RemovalKind::Eviction),
              Mode::Private);
    EXPECT_EQ(cls.classify(*st, 0), Mode::Private);
}

TEST(RemoteUtil, SaturatesAtRatMax)
{
    CompleteClassifier cls(cfg4(), true); // one-way: never promotes
    Record st(cls);
    cls.onPrivateRemoval(*st, 0, 1, RemovalKind::Invalidation);
    for (int i = 0; i < 100; ++i)
        cls.onRemoteAccess(*st, 0, ctxFullSet());
    EXPECT_EQ(cls.peek(*st, 0)->remoteUtil, 16u);
}

} // namespace
} // namespace lacc
