/**
 * @file
 * Property-based functional-correctness tests: randomized trace
 * workloads swept over protocol variants, classifiers, PCT values,
 * and core counts (TEST_P). Every read must return the value of the
 * most recent write in directory serialization order — the same
 * functional-correctness argument the paper makes for its Graphite
 * runs (§4.1) — and all accounting invariants must hold.
 */

#include <ostream>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "sim/rng.hh"
#include "system/multicore.hh"
#include "workload/trace_file.hh"

namespace lacc {
namespace {

SystemConfig
fuzzCfg(std::uint32_t cores)
{
    SystemConfig c;
    c.numCores = cores;
    c.meshWidth = cores >= 4 ? 4 : cores;
    c.clusterSize = cores >= 4 ? 4 : cores;
    c.numMemControllers = 2;
    c.l1iSizeKB = 1;
    c.l1dSizeKB = 2; // tiny: maximizes evictions and conflicts
    c.l2SizeKB = 16; // tiny: exercises L2 evictions + inclusion
    return c;
}

/**
 * Deterministic random trace: a small, hot address space shared by
 * all cores so invalidations, upgrades, write-backs, L2 evictions,
 * lock transfers, and barriers all fire constantly.
 */
TraceWorkload
randomTrace(std::uint32_t cores, std::uint64_t seed,
            std::uint32_t ops_per_core)
{
    Rng meta(seed);
    const Addr shared_base = Addr{1} << 33;
    const std::uint32_t shared_lines = 96;
    const Addr private_stride = Addr{1} << 22; // distinct pages/core

    std::vector<std::vector<MemOp>> streams(cores);
    const std::uint32_t barrier_every = ops_per_core / 4 + 1;
    for (std::uint32_t c = 0; c < cores; ++c) {
        Rng rng(seed * 977 + c);
        std::uint32_t since_barrier = 0;
        bool lock_held = false;
        for (std::uint32_t i = 0; i < ops_per_core; ++i) {
            const auto roll = rng.below(100);
            if (roll < 40) {
                // Shared-region access (hot, conflict-heavy).
                const Addr a = shared_base +
                               rng.below(shared_lines) * 64 +
                               rng.below(8) * 8;
                streams[c].push_back(rng.chance(0.4) ? MemOp::write(a)
                                                     : MemOp::read(a));
            } else if (roll < 70) {
                // Private-region access.
                const Addr a = (Addr{1} << 34) + c * private_stride +
                               rng.below(256) * 64 + rng.below(8) * 8;
                streams[c].push_back(rng.chance(0.3) ? MemOp::write(a)
                                                     : MemOp::read(a));
            } else if (roll < 80) {
                streams[c].push_back(
                    MemOp::compute(1 + static_cast<std::uint32_t>(
                                           rng.below(5))));
            } else if (roll < 90 && !lock_held) {
                streams[c].push_back(MemOp::lockAcquire(
                    static_cast<std::uint32_t>(rng.below(2))));
                // Critical-section body on a contended line.
                const Addr a = shared_base + rng.below(4) * 64;
                streams[c].push_back(MemOp::read(a));
                streams[c].push_back(MemOp::write(a));
                lock_held = true;
            } else if (lock_held) {
                // Close the section (lock id recovered from the
                // acquire two ops back is overkill; use both ids).
                for (auto it = streams[c].rbegin();
                     it != streams[c].rend(); ++it) {
                    if (it->kind == MemOp::Kind::LockAcquire) {
                        streams[c].push_back(
                            MemOp::lockRelease(it->lockId));
                        break;
                    }
                }
                lock_held = false;
            } else {
                const Addr a = shared_base + rng.below(shared_lines) * 64;
                streams[c].push_back(MemOp::read(a));
            }
            if (++since_barrier >= barrier_every) {
                if (lock_held) {
                    for (auto it = streams[c].rbegin();
                         it != streams[c].rend(); ++it) {
                        if (it->kind == MemOp::Kind::LockAcquire) {
                            streams[c].push_back(
                                MemOp::lockRelease(it->lockId));
                            break;
                        }
                    }
                    lock_held = false;
                }
                streams[c].push_back(MemOp::barrier());
                since_barrier = 0;
            }
        }
        if (lock_held) {
            for (auto it = streams[c].rbegin(); it != streams[c].rend();
                 ++it) {
                if (it->kind == MemOp::Kind::LockAcquire) {
                    streams[c].push_back(MemOp::lockRelease(it->lockId));
                    break;
                }
            }
        }
        // Equalize barrier counts (each core emitted the same number
        // by construction: ops_per_core / barrier_every).
    }
    (void)meta;
    return TraceWorkload("fuzz", std::move(streams), 2);
}

struct FuzzParam
{
    ClassifierKind classifier;
    ProtocolKind protocol;
    DirectoryKind directory;
    std::uint32_t pct;
    std::uint32_t cores;
    std::uint64_t seed;
};

std::string
describe(const FuzzParam &p)
{
    std::string s = classifierKindName(p.classifier);
    s += p.protocol == ProtocolKind::AdaptOneWay ? "_1way" : "_2way";
    s += p.directory == DirectoryKind::FullMap ? "_fullmap" : "_ackwise";
    s += "_pct" + std::to_string(p.pct);
    s += "_c" + std::to_string(p.cores);
    s += "_s" + std::to_string(p.seed);
    return s;
}

std::string
paramName(const testing::TestParamInfo<FuzzParam> &info)
{
    return describe(info.param);
}

/**
 * gtest prints a parameter into the listed test name; without this a
 * FuzzParam prints as a byte dump of the struct, padding included,
 * which differs from build to build.
 */
void
PrintTo(const FuzzParam &p, std::ostream *os)
{
    *os << describe(p);
}

class FunctionalFuzz : public testing::TestWithParam<FuzzParam>
{};

TEST_P(FunctionalFuzz, ReadsMatchReferenceAndInvariantsHold)
{
    const auto &p = GetParam();
    auto cfg = fuzzCfg(p.cores);
    cfg.classifierKind = p.classifier;
    cfg.protocolKind = p.protocol;
    cfg.directoryKind = p.directory;
    cfg.pct = p.pct;
    cfg.ackwisePointers = 2; // force broadcast overflow paths

    auto wl = randomTrace(p.cores, p.seed, 1500);
    Multicore m(cfg);
    m.setFunctionalChecks(true);
    const auto &st = m.run(wl);

    EXPECT_EQ(m.functionalErrors(), 0u);
    for (CoreId c = 0; c < p.cores; ++c) {
        const auto &cs = st.perCore[c];
        EXPECT_EQ(cs.latency.total(), cs.finishTime) << "core " << c;
    }

    // Directory consistency.
    for (CoreId h = 0; h < p.cores; ++h) {
        m.tile(h).l2.forEach([&](L2Cache::Entry e) {
            if (!e.valid())
                return;
            for (const CoreId hc : e.meta().holders) {
                const bool present =
                    m.tile(hc).l1d.find(e.tag()) ||
                    m.tile(hc).l1i.find(e.tag());
                ASSERT_TRUE(present);
            }
        });
    }
}

INSTANTIATE_TEST_SUITE_P(
    ClassifierSweep, FunctionalFuzz,
    testing::Values(
        FuzzParam{ClassifierKind::AlwaysPrivate, ProtocolKind::Adaptive,
                  DirectoryKind::Ackwise, 1, 8, 1},
        FuzzParam{ClassifierKind::Complete, ProtocolKind::Adaptive,
                  DirectoryKind::Ackwise, 4, 8, 2},
        FuzzParam{ClassifierKind::Limited, ProtocolKind::Adaptive,
                  DirectoryKind::Ackwise, 4, 8, 3},
        FuzzParam{ClassifierKind::Timestamp, ProtocolKind::Adaptive,
                  DirectoryKind::Ackwise, 4, 8, 4},
        FuzzParam{ClassifierKind::Complete, ProtocolKind::AdaptOneWay,
                  DirectoryKind::Ackwise, 4, 8, 5},
        FuzzParam{ClassifierKind::Limited, ProtocolKind::AdaptOneWay,
                  DirectoryKind::Ackwise, 4, 8, 6}),
    paramName);

INSTANTIATE_TEST_SUITE_P(
    PctSweep, FunctionalFuzz,
    testing::Values(
        FuzzParam{ClassifierKind::Limited, ProtocolKind::Adaptive,
                  DirectoryKind::Ackwise, 1, 8, 10},
        FuzzParam{ClassifierKind::Limited, ProtocolKind::Adaptive,
                  DirectoryKind::Ackwise, 2, 8, 11},
        FuzzParam{ClassifierKind::Limited, ProtocolKind::Adaptive,
                  DirectoryKind::Ackwise, 3, 8, 12},
        FuzzParam{ClassifierKind::Limited, ProtocolKind::Adaptive,
                  DirectoryKind::Ackwise, 6, 8, 13},
        FuzzParam{ClassifierKind::Limited, ProtocolKind::Adaptive,
                  DirectoryKind::Ackwise, 8, 8, 14},
        FuzzParam{ClassifierKind::Limited, ProtocolKind::Adaptive,
                  DirectoryKind::Ackwise, 16, 8, 15}),
    paramName);

INSTANTIATE_TEST_SUITE_P(
    TopologySweep, FunctionalFuzz,
    testing::Values(
        FuzzParam{ClassifierKind::Limited, ProtocolKind::Adaptive,
                  DirectoryKind::Ackwise, 4, 4, 20},
        FuzzParam{ClassifierKind::Limited, ProtocolKind::Adaptive,
                  DirectoryKind::Ackwise, 4, 16, 21},
        FuzzParam{ClassifierKind::Limited, ProtocolKind::Adaptive,
                  DirectoryKind::FullMap, 4, 8, 22},
        FuzzParam{ClassifierKind::Complete, ProtocolKind::Adaptive,
                  DirectoryKind::FullMap, 4, 16, 23},
        FuzzParam{ClassifierKind::AlwaysPrivate, ProtocolKind::Adaptive,
                  DirectoryKind::FullMap, 1, 16, 24}),
    paramName);

INSTANTIATE_TEST_SUITE_P(
    SeedSweep, FunctionalFuzz,
    testing::Values(
        FuzzParam{ClassifierKind::Limited, ProtocolKind::Adaptive,
                  DirectoryKind::Ackwise, 4, 8, 100},
        FuzzParam{ClassifierKind::Limited, ProtocolKind::Adaptive,
                  DirectoryKind::Ackwise, 4, 8, 101},
        FuzzParam{ClassifierKind::Limited, ProtocolKind::Adaptive,
                  DirectoryKind::Ackwise, 4, 8, 102},
        FuzzParam{ClassifierKind::Limited, ProtocolKind::Adaptive,
                  DirectoryKind::Ackwise, 4, 8, 103}),
    paramName);

} // namespace
} // namespace lacc
