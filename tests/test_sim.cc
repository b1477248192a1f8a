/**
 * @file
 * Unit tests for the sim base module: RNG determinism, configuration
 * validation and derived values, CLI config overrides, statistics
 * containers.
 */

#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/network.hh"
#include "protocol/protocol.hh"
#include "sim/config.hh"
#include "sim/flat_map.hh"
#include "sim/functional.hh"
#include "sim/overrides.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace lacc {
namespace {

TEST(FlatAddrMap, FindOnEmptyAndInsert)
{
    FlatAddrMap<int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(0x42), nullptr);
    m[0x42] = 7;
    EXPECT_EQ(m.size(), 1u);
    ASSERT_NE(m.find(0x42), nullptr);
    EXPECT_EQ(*m.find(0x42), 7);
    EXPECT_EQ(m.find(0x43), nullptr);
}

TEST(FlatAddrMap, OperatorBracketIsInsertOrGet)
{
    FlatAddrMap<int> m;
    m[5] = 1;
    m[5] = 2; // overwrite, no new entry
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(*m.find(5), 2);
    EXPECT_EQ(m[9], 0) << "fresh entries are value-initialized";
    EXPECT_EQ(m.size(), 2u);
}

TEST(FlatAddrMap, SurvivesGrowthWithManyAlignedKeys)
{
    // Page- and line-aligned keys (the simulator's key shapes) across
    // several growth steps; every entry must remain findable.
    FlatAddrMap<std::uint64_t> m;
    for (std::uint64_t i = 0; i < 5000; ++i)
        m[(i << 12) | 0x100000000ULL] = i;
    EXPECT_EQ(m.size(), 5000u);
    for (std::uint64_t i = 0; i < 5000; ++i) {
        const auto *v = m.find((i << 12) | 0x100000000ULL);
        ASSERT_NE(v, nullptr) << i;
        EXPECT_EQ(*v, i);
    }
}

TEST(FlatAddrMap, ReservePreventsRehash)
{
    FlatAddrMap<int> m(1000);
    for (std::uint64_t i = 0; i < 1000; ++i)
        m[i * 64] = static_cast<int>(i);
    EXPECT_EQ(m.size(), 1000u);
    EXPECT_EQ(*m.find(64 * 999), 999);
}

TEST(FlatAddrMap, ForEachVisitsEveryEntryOnce)
{
    FlatAddrMap<std::uint64_t> m;
    std::uint64_t key_sum = 0, val_sum = 0;
    for (std::uint64_t i = 1; i <= 100; ++i) {
        m[i * 4096] = i;
        key_sum += i * 4096;
        val_sum += i;
    }
    std::uint64_t ks = 0, vs = 0;
    std::size_t n = 0;
    m.forEach([&](std::uint64_t k, const std::uint64_t &v) {
        ks += k;
        vs += v;
        ++n;
    });
    EXPECT_EQ(n, 100u);
    EXPECT_EQ(ks, key_sum);
    EXPECT_EQ(vs, val_sum);
}

/** Expect @p m to hold exactly @p model: size, a find for every key
 * in @p keys (present or not), and one forEach visit per entry. */
void
expectMapHolds(const FlatAddrMap<std::uint64_t> &m,
               const std::map<std::uint64_t, std::uint64_t> &model,
               const std::set<std::uint64_t> &keys)
{
    EXPECT_EQ(m.size(), model.size());
    for (const std::uint64_t k : keys) {
        const std::uint64_t *v = m.find(k);
        const auto it = model.find(k);
        if (it == model.end()) {
            EXPECT_EQ(v, nullptr) << std::hex << k;
        } else {
            ASSERT_NE(v, nullptr) << std::hex << k;
            EXPECT_EQ(*v, it->second) << std::hex << k;
        }
    }
    std::map<std::uint64_t, std::uint64_t> visited;
    m.forEach([&](std::uint64_t k, const std::uint64_t &v) {
        EXPECT_TRUE(visited.emplace(k, v).second) << "visited twice";
    });
    EXPECT_EQ(visited, model);
}

TEST(FlatAddrMap, AssignFromIsExactAcrossCapacities)
{
    // Random walks over three maps of different pre-sizes: each step
    // inserts into one map or assigns one map from another. Targets
    // are dirty, often holding more entries than their source, of
    // equal and of different capacity, and keep taking inserts and
    // finds (and growth) after the assign; every map must always
    // match its model.
    std::size_t equal_caps = 0, different_caps = 0, larger_targets = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        std::vector<FlatAddrMap<std::uint64_t>> maps(3);
        maps[1].reserve(16);
        maps[2].reserve(256);
        std::vector<std::map<std::uint64_t, std::uint64_t>> models(3);
        std::set<std::uint64_t> keys; // every key any map ever held
        for (int step = 0; step < 600; ++step) {
            const std::size_t dst = rng.below(3);
            if (rng.chance(0.1)) {
                const std::size_t src = (dst + 1 + rng.below(2)) % 3;
                ++(maps[dst].capacity() == maps[src].capacity()
                       ? equal_caps
                       : different_caps);
                larger_targets += maps[dst].size() > maps[src].size();
                maps[dst].assignFrom(maps[src]);
                models[dst] = models[src];
                expectMapHolds(maps[dst], models[dst], keys);
            } else {
                const std::uint64_t k =
                    (Addr{1} << 32) | ((rng.below(400) + 1) << 6);
                const std::uint64_t v = rng.next();
                maps[dst][k] = v;
                models[dst][k] = v;
                keys.insert(k);
            }
            if (step % 25 == 0)
                for (std::size_t i = 0; i < 3; ++i)
                    expectMapHolds(maps[i], models[i], keys);
        }
        for (std::size_t i = 0; i < 3; ++i)
            expectMapHolds(maps[i], models[i], keys);
    }
    EXPECT_GT(equal_caps, 0u);
    EXPECT_GT(different_caps, 0u);
    EXPECT_GT(larger_targets, 0u);
}

TEST(FunctionalMemory, WordAddrMasksToWordGranularity)
{
    EXPECT_EQ(FunctionalMemory::wordAddr(0x1000), 0x1000u);
    EXPECT_EQ(FunctionalMemory::wordAddr(0x1001), 0x1000u);
    EXPECT_EQ(FunctionalMemory::wordAddr(0x1007), 0x1000u);
    EXPECT_EQ(FunctionalMemory::wordAddr(0x1008), 0x1008u);
}

TEST(FunctionalMemory, WriteAndCheckShareWordGranularity)
{
    // All byte addresses of one 64-bit word alias the same reference
    // cell (write and checkRead use the same wordAddr helper).
    FunctionalMemory m;
    m.reserveFootprint(64);
    m.write(0x2003, 42);
    m.checkRead(0x2000, 42);
    m.checkRead(0x2007, 42);
    EXPECT_EQ(m.errors(), 0u);
    m.checkRead(0x2008, 42); // different word: expects 0
    EXPECT_EQ(m.errors(), 1u);
}

TEST(FunctionalMemory, DisabledChecksRecordNothing)
{
    FunctionalMemory m;
    m.setChecks(false);
    m.reserveFootprint(1 << 20); // no-op when disabled
    m.write(0x3000, 7);
    m.checkRead(0x3000, 99); // no golden copy -> no mismatch
    EXPECT_EQ(m.errors(), 0u);
}

TEST(MixAddrBits, MixesLowEntropyKeys)
{
    // Page-aligned keys must spread across low-order hash bits (the
    // identity hash would leave them all zero modulo a power of two).
    std::size_t distinct = 0;
    std::vector<bool> seen(256, false);
    for (std::uint64_t p = 0; p < 256; ++p) {
        const auto h = mixAddrBits(p << 12) & 0xFF;
        distinct += !seen[h];
        seen[h] = true;
    }
    EXPECT_GT(distinct, 128u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.below(13);
        EXPECT_LT(v, 13u);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng r(11);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++seen[r.below(8)];
    for (int b = 0; b < 8; ++b)
        EXPECT_GT(seen[b], 500) << "bucket " << b;
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng r(9);
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
}

TEST(Rng, BurstLengthBounded)
{
    Rng r(5);
    for (int i = 0; i < 1000; ++i) {
        const auto len = r.burstLength(4.0, 16);
        EXPECT_GE(len, 1u);
        EXPECT_LE(len, 16u);
    }
}

TEST(Config, Table1Defaults)
{
    const SystemConfig cfg;
    EXPECT_EQ(cfg.numCores, 64u);
    EXPECT_EQ(cfg.meshWidth, 8u);
    EXPECT_EQ(cfg.meshHeight(), 8u);
    EXPECT_EQ(cfg.lineSize, 64u);
    EXPECT_EQ(cfg.l1iSizeKB, 16u);
    EXPECT_EQ(cfg.l1dSizeKB, 32u);
    EXPECT_EQ(cfg.l2SizeKB, 256u);
    EXPECT_EQ(cfg.l1Latency, 1u);
    EXPECT_EQ(cfg.l2Latency, 7u);
    EXPECT_EQ(cfg.numMemControllers, 8u);
    EXPECT_EQ(cfg.dramLatency, 100u);
    EXPECT_EQ(cfg.ackwisePointers, 4u);
    EXPECT_EQ(cfg.pct, 4u);
    EXPECT_EQ(cfg.ratMax, 16u);
    EXPECT_EQ(cfg.nRatLevels, 2u);
    EXPECT_EQ(cfg.classifierK, 3u);
    EXPECT_EQ(cfg.classifierKind, ClassifierKind::Limited);
    EXPECT_EQ(cfg.directoryKind, DirectoryKind::Ackwise);
    EXPECT_NO_FATAL_FAILURE(cfg.validate());
}

TEST(Config, DerivedGeometry)
{
    const SystemConfig cfg;
    // 32 KB / 64 B / 4-way = 128 sets; 16 KB -> 64; 256 KB/8-way -> 512.
    EXPECT_EQ(cfg.l1dSets(), 128u);
    EXPECT_EQ(cfg.l1iSets(), 64u);
    EXPECT_EQ(cfg.l2Sets(), 512u);
    EXPECT_EQ(cfg.wordsPerLine(), 8u);
}

TEST(Config, RatLevelsAdditive)
{
    SystemConfig cfg;
    cfg.pct = 4;
    cfg.ratMax = 16;
    cfg.nRatLevels = 2;
    EXPECT_EQ(cfg.ratForLevel(0), 4u);
    EXPECT_EQ(cfg.ratForLevel(1), 16u);
    EXPECT_EQ(cfg.ratForLevel(5), 16u); // clamped

    cfg.nRatLevels = 4;
    EXPECT_EQ(cfg.ratForLevel(0), 4u);
    EXPECT_EQ(cfg.ratForLevel(1), 8u);
    EXPECT_EQ(cfg.ratForLevel(2), 12u);
    EXPECT_EQ(cfg.ratForLevel(3), 16u);

    cfg.nRatLevels = 1;
    EXPECT_EQ(cfg.ratForLevel(0), 4u);
}

TEST(Config, SummaryMentionsKeyKnobs)
{
    SystemConfig cfg;
    const auto s = cfg.summary();
    EXPECT_NE(s.find("64 cores"), std::string::npos);
    EXPECT_NE(s.find("PCT=4"), std::string::npos);
    EXPECT_NE(s.find("Limited3"), std::string::npos);
}

// Checks the protocol, network and fault-rate overrides; the name
// predates the removal of the engine override and is kept so test
// histories line up.
TEST(Overrides, ApplySelectsEngineAndFactories)
{
    SystemConfig cfg;
    ConfigOverrides ov;
    ov.protocol = "fullmap";
    ov.network = "torus";
    EXPECT_TRUE(ov.validateOrReport());
    ov.apply(cfg);
    EXPECT_STREQ(protocolNameFor(cfg), "fullmap");
    EXPECT_STREQ(networkNameFor(cfg), "torus");

    ConfigOverrides bad;
    bad.protocol = "nope";
    EXPECT_FALSE(bad.validateOrReport());
    bad = ConfigOverrides{};
    bad.network = "nope";
    EXPECT_FALSE(bad.validateOrReport());
    // A set fault rate must lie in [0, 1].
    for (const double rate : {std::nan(""), 1.5, -0.5}) {
        bad = ConfigOverrides{};
        bad.faultRate = rate;
        EXPECT_FALSE(bad.validateOrReport()) << rate;
    }
    bad.faultRate = 1.0;
    EXPECT_TRUE(bad.validateOrReport());
    EXPECT_TRUE(ConfigOverrides{}.validateOrReport());
    EXPECT_FALSE(ConfigOverrides{}.any());
    EXPECT_TRUE(ov.any());

    // A set fault seed, zero included, replaces the config's.
    ConfigOverrides seed;
    seed.faultSeed = 0;
    EXPECT_TRUE(seed.any());
    seed.apply(cfg);
    EXPECT_EQ(cfg.faultSeed, 0u);
}

TEST(Overrides, ParseU64IsStrict)
{
    const std::uint64_t max_seed = UINT64_MAX / 2;
    std::uint64_t v = 7;
    EXPECT_TRUE(parseU64("0", 0, 10, v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseU64("9223372036854775807", 0, max_seed, v));
    EXPECT_EQ(v, max_seed);
    for (const char *bad :
         {"", "-1", "+2", " 2", "2 ", "0x10", "12x", "1e3",
          "9223372036854775808", "18446744073709551615",
          "99999999999999999999"}) {
        v = 7;
        EXPECT_FALSE(parseU64(bad, 0, max_seed, v)) << bad;
        EXPECT_EQ(v, 7u) << bad;
    }
    EXPECT_FALSE(parseU64("0", 1, 1024, v));
    EXPECT_FALSE(parseU64("1025", 1, 1024, v));
    EXPECT_TRUE(parseU64("1024", 1, 1024, v));
}

TEST(Stats, LatencyBreakdownSumsAndAccumulates)
{
    LatencyBreakdown a;
    a.compute = 10;
    a.l1ToL2 = 5;
    a.l2Waiting = 3;
    a.l2Sharers = 2;
    a.offChip = 7;
    a.synchronization = 4;
    EXPECT_EQ(a.total(), 31u);
    LatencyBreakdown b = a;
    b += a;
    EXPECT_EQ(b.total(), 62u);
}

/** Byte offset of member @p m within an S. */
template <typename S, typename T>
std::size_t
offsetOf(T S::*m)
{
    static const S s{};
    return static_cast<std::size_t>(
        reinterpret_cast<const char *>(&(s.*m)) -
        reinterpret_cast<const char *>(&s));
}

/**
 * S's field table tiles [0, end): each listed member starts where the
 * previous one ended, so the table is in declaration order with no
 * member left out or listed twice. Its keys are unique.
 */
template <typename S>
void
expectTableTiles(const char *name, std::size_t end = sizeof(S))
{
    SCOPED_TRACE(name);
    std::size_t next = 0;
    std::size_t listed = 0;
    std::set<std::string> keys;
    S::forEachField([&](const char *key, auto m) {
        EXPECT_EQ(offsetOf(m), next) << key;
        next += sizeof(S{}.*m);
        keys.insert(key);
        ++listed;
    });
    EXPECT_EQ(next, end);
    EXPECT_EQ(keys.size(), listed);
}

TEST(Stats, FieldTablesCoverEveryMember)
{
    expectTableTiles<LatencyBreakdown>("LatencyBreakdown");
    expectTableTiles<EnergyBreakdown>("EnergyBreakdown");
    expectTableTiles<CacheStats>("CacheStats");
    expectTableTiles<NetworkStats>("NetworkStats");
    expectTableTiles<FaultStats>("FaultStats");
    expectTableTiles<ProtocolStats>("ProtocolStats");
    // CoreStats tables only the counters declared before finishTime.
    expectTableTiles<CoreStats>("CoreStats",
                                offsetOf(&CoreStats::finishTime));
}

TEST(Stats, MissBreakdownRecords)
{
    MissBreakdown m;
    m.record(MissType::Cold);
    m.record(MissType::Cold);
    m.record(MissType::Word);
    EXPECT_EQ(m.get(MissType::Cold), 2u);
    EXPECT_EQ(m.get(MissType::Word), 1u);
    EXPECT_EQ(m.total(), 3u);
}

TEST(Stats, UtilizationHistogramBuckets)
{
    UtilizationHistogram h;
    h.record(1);
    h.record(2);
    h.record(3);
    h.record(4);
    h.record(8);
    h.record(100); // clamped into >= 8 bucket
    EXPECT_EQ(h.total(), 6u);
    EXPECT_DOUBLE_EQ(h.bucketFraction(0), 1.0 / 6);
    EXPECT_DOUBLE_EQ(h.bucketFraction(1), 2.0 / 6);
    EXPECT_DOUBLE_EQ(h.bucketFraction(2), 1.0 / 6);
    EXPECT_DOUBLE_EQ(h.bucketFraction(3), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketFraction(4), 2.0 / 6);
    EXPECT_DOUBLE_EQ(h.fractionBelow(4), 3.0 / 6);
}

TEST(Stats, CacheStatsMissRate)
{
    CacheStats s;
    s.loads = 90;
    s.stores = 10;
    s.loadMisses = 5;
    s.storeMisses = 5;
    EXPECT_EQ(s.accesses(), 100u);
    EXPECT_DOUBLE_EQ(s.missRate(), 0.1);
}

TEST(Stats, SystemStatsCompletionIsMax)
{
    SystemStats s;
    s.perCore.resize(3);
    s.perCore[0].finishTime = 10;
    s.perCore[1].finishTime = 42;
    s.perCore[2].finishTime = 17;
    EXPECT_EQ(s.completionTime(), 42u);
}

TEST(Types, MissTypeNames)
{
    EXPECT_STREQ(missTypeName(MissType::Cold), "Cold");
    EXPECT_STREQ(missTypeName(MissType::Word), "Word");
    EXPECT_STREQ(modeName(Mode::Private), "Private");
    EXPECT_STREQ(modeName(Mode::Remote), "Remote");
}

} // namespace
} // namespace lacc
