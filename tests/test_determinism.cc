/**
 * @file
 * Golden-hash determinism regression (guards protocol refactors).
 *
 * Runs one small mixed workload (all six archetypes + locks +
 * barriers + ifetch walker) per classifier variant and compares the
 * integer-field digest of the resulting SystemStats against committed
 * golden values. The digest (system/report.hh statsSignature) covers
 * every counter, clock, and histogram the simulator produces, so any
 * behavioral drift in the coherence engine — intended or not — shows
 * up here before it shows up in the paper figures.
 *
 * If a change is *meant* to alter protocol behavior, re-run this
 * binary and update the goldens below with the printed values.
 *
 * Further goldens pin every interconnect topology, the 64-core
 * machine, and each directory organization under ACKwise pointer
 * overflow (the only runs that reach the overflow broadcast).
 *
 * A second group re-runs a grid through the harness sweep runner
 * serially and with 4 worker threads and requires bit-identical
 * digests (the `--jobs 4` determinism contract of lacc_bench).
 */

#include <map>
#include <string>

#include <gtest/gtest.h>

#include "harness/registry.hh"
#include "harness/runner.hh"
#include "net/factory.hh"
#include "protocol/protocol.hh"
#include "system/experiment.hh"
#include "system/multicore.hh"
#include "system/report.hh"
#include "workload/archetypes.hh"

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

/** Small mixed workload touching every archetype and sync primitive. */
SyntheticSpec
mixedSpec()
{
    SyntheticSpec s;
    s.name = "determinism-mix";
    s.numCores = 8;
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

/** Digest of one mixed-workload run, and its ACKwise broadcasts. */
struct MixRun
{
    std::uint64_t signature;
    std::uint64_t broadcasts;
};

MixRun
runMix(const SystemConfig &cfg)
{
    SyntheticWorkload wl(mixedSpec(), cfg);
    Multicore m(cfg);
    const SystemStats &stats = m.run(wl);
    EXPECT_EQ(m.functionalErrors(), 0u);
    return {statsSignature(stats), stats.protocol.broadcastInvals};
}

std::uint64_t
signatureFor(const SystemConfig &cfg)
{
    return runMix(cfg).signature;
}

std::uint64_t
runSignature(ClassifierKind k)
{
    return signatureFor(cfg8(k));
}

struct Golden
{
    ClassifierKind kind;
    const char *name;
    std::uint64_t signature;
};

// Golden digests of the seed behavior. Regenerate by running this
// test and copying the printed "actual" values.
const Golden kGoldens[] = {
    {ClassifierKind::Complete, "Complete", 0x12975edbf2f6aa50ULL},
    {ClassifierKind::Limited, "Limited", 0x4a9d58c62567b5f4ULL},
    {ClassifierKind::Timestamp, "Timestamp", 0xa5fd7979994d925aULL},
    {ClassifierKind::AlwaysPrivate, "AlwaysPrivate",
     0xffa1b2765227b05eULL},
};

TEST(Determinism, GoldenHashPerClassifierVariant)
{
    for (const auto &g : kGoldens) {
        const std::uint64_t sig = runSignature(g.kind);
        EXPECT_EQ(sig, g.signature)
            << g.name << " stats signature drifted; actual 0x"
            << std::hex << sig
            << " — protocol behavior changed (update the golden only"
               " if the change is intentional)";
    }
}

TEST(Determinism, RepeatedRunsAreBitIdentical)
{
    EXPECT_EQ(runSignature(ClassifierKind::Limited),
              runSignature(ClassifierKind::Limited));
}

// Golden digests per interconnect topology (Limited classifier).
// The "mesh" entry must match the Limited entry above: the default
// fabric is pinned to the pre-NetworkModel seed behavior, and the
// other fabrics are pinned so topology-model drift is as loud as
// protocol drift. Regenerate like the classifier goldens.
const Golden kNetworkGoldens[] = {
    {ClassifierKind::Limited, "mesh", 0x4a9d58c62567b5f4ULL},
    {ClassifierKind::Limited, "torus", 0xafe9d14444e7f751ULL},
    {ClassifierKind::Limited, "ring", 0xfa665e0a792f121dULL},
    {ClassifierKind::Limited, "xbar", 0x5e9137e28be7ecb7ULL},
};

TEST(Determinism, GoldenHashPerNetworkTopology)
{
    for (const auto &g : kNetworkGoldens) {
        SystemConfig cfg = cfg8(g.kind);
        applyNetworkName(cfg, g.name);
        const std::uint64_t sig = signatureFor(cfg);
        EXPECT_EQ(sig, g.signature)
            << g.name << " stats signature drifted; actual 0x"
            << std::hex << sig
            << " — network-model behavior changed (update the golden"
               " only if the change is intentional)";
    }
}

// 64-core full-machine goldens, one per topology (Limited
// classifier, default 8-wide mesh dimensions). These pin the paper-
// scale configuration the figures run at.
const Golden kNetworkGoldens64[] = {
    {ClassifierKind::Limited, "mesh", 0xd6a0b30411599c9eULL},
    {ClassifierKind::Limited, "torus", 0x1bb3bc2cef6d5e3cULL},
    {ClassifierKind::Limited, "ring", 0x8d1941334706d3d9ULL},
    {ClassifierKind::Limited, "xbar", 0x4be36b36d2539cf5ULL},
};

std::uint64_t
signature64(const char *network)
{
    SystemConfig cfg; // defaults: 64 cores, 8-wide mesh
    cfg.classifierKind = ClassifierKind::Limited;
    applyNetworkName(cfg, network);
    SyntheticSpec spec = mixedSpec();
    spec.numCores = 64;
    SyntheticWorkload wl(spec, cfg);
    Multicore m(cfg);
    const SystemStats &stats = m.run(wl);
    EXPECT_EQ(m.functionalErrors(), 0u);
    return statsSignature(stats);
}

TEST(Determinism, GoldenHash64CoresPerNetworkTopology)
{
    for (const auto &g : kNetworkGoldens64) {
        const std::uint64_t sig = signature64(g.name);
        EXPECT_EQ(sig, g.signature)
            << "64-core " << g.name
            << " stats signature drifted; actual 0x" << std::hex << sig
            << " — update the golden only if the change is"
               " intentional";
    }
}

TEST(Determinism, TopologiesProduceDistinctTraffic)
{
    // The fabrics must actually differ: identical digests would mean
    // a factory wiring bug silently running everything on one model.
    SystemConfig mesh = cfg8(ClassifierKind::Limited);
    SystemConfig ring = mesh, xbar = mesh;
    applyNetworkName(ring, "ring");
    applyNetworkName(xbar, "xbar");
    const auto s_mesh = signatureFor(mesh);
    EXPECT_NE(s_mesh, signatureFor(ring));
    EXPECT_NE(s_mesh, signatureFor(xbar));
}

// Golden digests per directory organization. Every golden above has
// zero ACKwise broadcasts, so lacc and fullmap agree on all of them;
// here one ACKwise pointer makes the mix overflow it. xbar has no
// native broadcast, so it drives the serialized-unicast emulation.
// Regenerate like the classifier goldens.
struct ProtocolGolden
{
    const char *protocol;
    const char *network;
    ProtocolKind variant;
    std::uint64_t signature;
};

const ProtocolGolden kProtocolGoldens[] = {
    {"lacc", "mesh", ProtocolKind::Adaptive, 0x4288e0f641e70545ULL},
    {"fullmap", "mesh", ProtocolKind::Adaptive, 0x4a9d58c62567b5f4ULL},
    {"lacc", "xbar", ProtocolKind::Adaptive, 0xaacdea687524a674ULL},
    {"fullmap", "xbar", ProtocolKind::Adaptive, 0x5e9137e28be7ecb7ULL},
    {"lacc", "mesh", ProtocolKind::AdaptOneWay, 0x552deafe3298e267ULL},
};

TEST(Determinism, GoldenHashPerProtocol)
{
    // Adapt2-way digest per "protocol on network".
    std::map<std::string, std::uint64_t> adapt2;
    for (const auto &g : kProtocolGoldens) {
        SystemConfig cfg = cfg8(ClassifierKind::Limited);
        cfg.ackwisePointers = 1;
        cfg.protocolKind = g.variant;
        applyProtocolName(cfg, g.protocol);
        applyNetworkName(cfg, g.network);
        const MixRun r = runMix(cfg);
        const std::string run = std::string(g.protocol) + " on " +
                                g.network;
        const std::string what =
            run + (g.variant == ProtocolKind::AdaptOneWay ? " (Adapt1-way)"
                                                          : "");
        EXPECT_EQ(r.signature, g.signature)
            << what << " stats signature drifted; actual 0x" << std::hex
            << r.signature
            << " — update the golden only if the change is intentional";
        // Non-vacuity: these runs must reach the overflow broadcast,
        // which a full-map list never takes.
        if (cfg.directoryKind == DirectoryKind::Ackwise)
            EXPECT_GT(r.broadcasts, 0u) << what;
        else
            EXPECT_EQ(r.broadcasts, 0u) << what;
        if (g.variant == ProtocolKind::Adaptive)
            adapt2[run] = r.signature;
    }
    for (const std::string net : {"mesh", "xbar"}) {
        for (const std::string &name : protocolNames())
            EXPECT_EQ(adapt2.count(name + " on " + net), 1u)
                << name << " on " << net << " has no golden";
        EXPECT_NE(adapt2["lacc on " + net], adapt2["fullmap on " + net])
            << net;
    }
}

TEST(Determinism, SweepRunnerSerialEqualsJobs4)
{
    std::vector<harness::Job> jobs;
    for (const auto &g : kGoldens) {
        SystemConfig cfg = defaultConfig();
        cfg.classifierKind = g.kind;
        jobs.push_back({"radix", cfg, std::string("det ") + g.name});
    }

    harness::SweepOptions serial;
    serial.jobs = 1;
    serial.opScale = 0.02;
    serial.progress = false;
    harness::SweepOptions parallel = serial;
    parallel.jobs = 4;

    const auto rs = harness::runSweep(jobs, serial);
    const auto rp = harness::runSweep(jobs, parallel);
    ASSERT_EQ(rs.size(), jobs.size());
    ASSERT_EQ(rp.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(statsSignature(rs[i].result.stats),
                  statsSignature(rp[i].result.stats))
            << jobs[i].label;
        EXPECT_EQ(rs[i].result.completionTime,
                  rp[i].result.completionTime)
            << jobs[i].label;
    }
}

} // namespace
} // namespace lacc
