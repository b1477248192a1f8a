/**
 * @file
 * Unit tests for the interconnect layer: the 2-D mesh (XY distances,
 * wormhole serialization, link contention, broadcast tree coverage,
 * energy/traffic accounting) plus the torus/ring/crossbar topologies
 * behind the NetworkModel interface (wraparound distances, broadcast
 * arc/tree link occupancy, serialized-broadcast emulation) and the
 * network factory.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "energy/model.hh"
#include "net/crossbar.hh"
#include "net/factory.hh"
#include "net/mesh.hh"
#include "net/ring.hh"
#include "net/torus.hh"

namespace lacc {
namespace {

SystemConfig
meshCfg(std::uint32_t cores, std::uint32_t width)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.meshWidth = width;
    cfg.clusterSize = cores >= 4 ? 4 : 1;
    cfg.numMemControllers = cores >= 8 ? 8 : 1;
    return cfg;
}

/** Directed link id on a mesh or torus: node*4 + {E=0, W=1, S=2, N=3}. */
std::uint32_t
gridLink(CoreId node, std::uint32_t dir)
{
    return node * 4 + dir;
}

/**
 * Every link in @p want carried exactly one flit and every other link
 * none: the route or tree crossed exactly these links, once each.
 */
void
expectOccupiesExactly(const NetworkModel &net,
                      const std::vector<std::uint32_t> &want)
{
    for (std::uint32_t l = 0; l < net.numLinks(); ++l) {
        const bool wanted =
            std::find(want.begin(), want.end(), l) != want.end();
        EXPECT_EQ(net.linkFlits(l), wanted ? 1u : 0u) << "link " << l;
    }
}

TEST(Mesh, Coordinates)
{
    EnergyModel e;
    MeshNetwork net(meshCfg(64, 8), e);
    EXPECT_EQ(net.xOf(0), 0u);
    EXPECT_EQ(net.yOf(0), 0u);
    EXPECT_EQ(net.xOf(9), 1u);
    EXPECT_EQ(net.yOf(9), 1u);
    EXPECT_EQ(net.xOf(63), 7u);
    EXPECT_EQ(net.yOf(63), 7u);
}

TEST(Mesh, HopCountManhattan)
{
    EnergyModel e;
    MeshNetwork net(meshCfg(64, 8), e);
    EXPECT_EQ(net.hopCount(0, 0), 0u);
    EXPECT_EQ(net.hopCount(0, 7), 7u);
    EXPECT_EQ(net.hopCount(0, 63), 14u);
    EXPECT_EQ(net.hopCount(9, 18), 2u);
}

TEST(Mesh, IdealLatency)
{
    EnergyModel e;
    MeshNetwork net(meshCfg(64, 8), e);
    // hops * 2 + (flits - 1)
    EXPECT_EQ(net.idealLatency(0, 1, 1), 2u);
    EXPECT_EQ(net.idealLatency(0, 1, 9), 10u);
    EXPECT_EQ(net.idealLatency(0, 63, 1), 28u);
}

TEST(Mesh, UnicastMatchesIdealWithoutContention)
{
    EnergyModel e;
    MeshNetwork net(meshCfg(64, 8), e);
    const Cycle t = net.unicast(0, 63, 9, 1000);
    EXPECT_EQ(t, 1000 + net.idealLatency(0, 63, 9));
}

TEST(Mesh, LocalDeliveryIsFree)
{
    EnergyModel e;
    MeshNetwork net(meshCfg(64, 8), e);
    EXPECT_EQ(net.unicast(5, 5, 9, 123), 123u);
    EXPECT_EQ(net.stats().flitHops, 0u);
    EXPECT_DOUBLE_EQ(e.breakdown().link, 0.0);
}

TEST(Mesh, ContentionDelaysSecondMessage)
{
    EnergyModel e;
    MeshNetwork net(meshCfg(4, 2), e);
    // Two 8-flit messages over the same single link 0->1 at t=0.
    const Cycle a = net.unicast(0, 1, 8, 0);
    const Cycle b = net.unicast(0, 1, 8, 0);
    EXPECT_EQ(a, net.idealLatency(0, 1, 8));
    EXPECT_GT(b, a);
    EXPECT_GE(net.stats().contentionCycles, 7u);
}

TEST(Mesh, DisjointPathsNoContention)
{
    EnergyModel e;
    MeshNetwork net(meshCfg(64, 8), e);
    const Cycle a = net.unicast(0, 7, 8, 0);
    const Cycle b = net.unicast(56, 63, 8, 0); // different row
    EXPECT_EQ(a, b);
    EXPECT_EQ(net.stats().contentionCycles, 0u);
}

TEST(Mesh, XYRoutingOrder)
{
    // A's X-leg (row 0) and B's Y-leg share no link under XY routing
    // even though their paths cross at tile 3.
    EnergyModel e;
    MeshNetwork net(meshCfg(64, 8), e);
    net.unicast(0, 7, 8, 0);   // row 0 eastward
    net.unicast(3, 59, 8, 0);  // straight down column 3
    EXPECT_EQ(net.stats().contentionCycles, 0u);
}

TEST(Mesh, BroadcastReachesAll)
{
    EnergyModel e;
    MeshNetwork net(meshCfg(64, 8), e);
    std::vector<Cycle> arrivals;
    const Cycle max_t = net.broadcast(27, 1, 500, arrivals);
    ASSERT_EQ(arrivals.size(), 64u);
    Cycle seen_max = 0;
    for (CoreId c = 0; c < 64; ++c) {
        if (c == 27)
            continue;
        EXPECT_GE(arrivals[c], 500 + net.idealLatency(27, c, 1))
            << "core " << c;
        seen_max = std::max(seen_max, arrivals[c]);
    }
    EXPECT_EQ(max_t, seen_max);
}

TEST(Mesh, BroadcastUsesSpanningTreeLinks)
{
    EnergyModel e;
    MeshNetwork net(meshCfg(64, 8), e);
    std::vector<Cycle> arrivals;
    net.broadcast(0, 1, 0, arrivals);
    // N-1 tree links, 1 flit each.
    EXPECT_EQ(net.stats().flitHops, 63u);
    EXPECT_EQ(net.stats().broadcasts, 1u);
}

TEST(Mesh, BroadcastCheaperThanUnicastStorm)
{
    EnergyModel e1, e2;
    MeshNetwork a(meshCfg(64, 8), e1);
    MeshNetwork b(meshCfg(64, 8), e2);
    std::vector<Cycle> arrivals;
    a.broadcast(0, 1, 0, arrivals);
    for (CoreId c = 1; c < 64; ++c)
        b.unicast(0, c, 1, 0);
    EXPECT_LT(a.stats().flitHops, b.stats().flitHops);
    EXPECT_LT(e1.breakdown().link, e2.breakdown().link);
}

TEST(Mesh, EnergyLinkExceedsRouterPerDefaults)
{
    // 11nm trend (§5.1.1): links cost more than routers.
    EnergyModel e;
    MeshNetwork net(meshCfg(64, 8), e);
    net.unicast(0, 63, 8, 0);
    EXPECT_GT(e.breakdown().link, e.breakdown().router);
}

TEST(Mesh, StatsAccumulateAndReset)
{
    EnergyModel e;
    MeshNetwork net(meshCfg(16, 4), e);
    net.unicast(0, 15, 2, 0);
    EXPECT_EQ(net.stats().unicasts, 1u);
    EXPECT_EQ(net.stats().flitsInjected, 2u);
    EXPECT_EQ(net.stats().flitHops, 2u * net.hopCount(0, 15));
    net.reset();
    EXPECT_EQ(net.stats().unicasts, 0u);
    EXPECT_EQ(net.stats().flitHops, 0u);
}

TEST(Mesh, NonSquareMesh)
{
    EnergyModel e;
    MeshNetwork net(meshCfg(8, 4), e); // 4x2 mesh
    EXPECT_EQ(net.hopCount(0, 7), 4u);
    std::vector<Cycle> arrivals;
    net.broadcast(5, 1, 0, arrivals);
    EXPECT_EQ(net.stats().flitHops, 7u);
}

TEST(Mesh, BroadcastOccupiesXThenYTreeLinks)
{
    // 4x4 mesh, broadcast from tile 5 = (x=1, y=1). The X-then-Y tree
    // expands east/west along row 1 and north/south along every
    // column; directed link ids are node*4 + {E=0, W=1, S=2, N=3}.
    EnergyModel e;
    MeshNetwork net(meshCfg(16, 4), e);
    std::vector<Cycle> arrivals;
    net.broadcast(5, 1, 0, arrivals);

    // Row expansion: 5->6->7 east, 5->4 west.
    EXPECT_EQ(net.linkFlits(gridLink(5, 0)), 1u);
    EXPECT_EQ(net.linkFlits(gridLink(6, 0)), 1u);
    EXPECT_EQ(net.linkFlits(gridLink(7, 0)), 0u); // east edge: no wrap
    EXPECT_EQ(net.linkFlits(gridLink(5, 1)), 1u);
    EXPECT_EQ(net.linkFlits(gridLink(4, 1)), 0u); // west edge: no wrap
    // Column expansion from every row-1 node: south two rows, north
    // one row (e.g. column 2: 6->10->14 south, 6->2 north).
    EXPECT_EQ(net.linkFlits(gridLink(6, 2)), 1u);
    EXPECT_EQ(net.linkFlits(gridLink(10, 2)), 1u);
    EXPECT_EQ(net.linkFlits(gridLink(6, 3)), 1u);
    EXPECT_EQ(net.linkFlits(gridLink(2, 3)), 0u); // north edge
    // The tree occupies exactly N-1 directed links, once each.
    std::uint64_t occupied = 0;
    for (std::uint32_t l = 0; l < 16 * 4; ++l) {
        EXPECT_LE(net.linkFlits(l), 1u) << "link " << l;
        occupied += net.linkFlits(l);
    }
    EXPECT_EQ(occupied, 15u);
}

// ---------------------------------------------------------------------------
// Torus
// ---------------------------------------------------------------------------

TEST(Torus, WraparoundHopCounts)
{
    EnergyModel e;
    TorusNetwork net(meshCfg(64, 8), e);
    EXPECT_EQ(net.hopCount(0, 0), 0u);
    EXPECT_EQ(net.hopCount(0, 7), 1u);   // row wrap: 7 on the mesh
    EXPECT_EQ(net.hopCount(0, 56), 1u);  // column wrap
    EXPECT_EQ(net.hopCount(0, 63), 2u);  // both wraps: 14 on the mesh
    EXPECT_EQ(net.hopCount(0, 36), 8u);  // (4,4): the torus diameter
    EXPECT_EQ(net.hopCount(9, 18), 2u);  // no wrap: same as the mesh
    // Symmetric: wrap distance is direction-independent.
    EXPECT_EQ(net.hopCount(63, 0), 2u);
}

TEST(Torus, NeverWorseThanMesh)
{
    EnergyModel e1, e2;
    MeshNetwork mesh(meshCfg(64, 8), e1);
    TorusNetwork torus(meshCfg(64, 8), e2);
    for (CoreId s = 0; s < 64; s += 7)
        for (CoreId d = 0; d < 64; ++d)
            EXPECT_LE(torus.hopCount(s, d), mesh.hopCount(s, d))
                << s << "->" << d;
}

TEST(Torus, UnicastMatchesIdealWithoutContention)
{
    EnergyModel e;
    TorusNetwork net(meshCfg(64, 8), e);
    const Cycle t = net.unicast(0, 63, 9, 1000);
    EXPECT_EQ(t, 1000 + net.idealLatency(0, 63, 9));
    EXPECT_EQ(net.stats().flitHops, 9u * 2);
    EXPECT_EQ(net.unicast(5, 5, 9, 123), 123u); // local delivery
}

TEST(Torus, BroadcastReachesAllOverSpanningTree)
{
    EnergyModel e;
    TorusNetwork net(meshCfg(64, 8), e);
    std::vector<Cycle> arrivals;
    const Cycle max_t = net.broadcast(27, 1, 500, arrivals);
    ASSERT_EQ(arrivals.size(), 64u);
    Cycle seen_max = 0;
    for (CoreId c = 0; c < 64; ++c) {
        if (c == 27)
            continue;
        EXPECT_GE(arrivals[c], 500 + net.idealLatency(27, c, 1))
            << "core " << c;
        seen_max = std::max(seen_max, arrivals[c]);
    }
    EXPECT_EQ(max_t, seen_max);
    // N-1 tree links, 1 flit each, single injection.
    EXPECT_EQ(net.stats().flitHops, 63u);
    EXPECT_EQ(net.stats().flitsInjected, 1u);
    EXPECT_EQ(net.stats().broadcasts, 1u);
}

TEST(Torus, HalfRowTieGoesEast)
{
    // 4x4 torus: (1,0) -> (3,0) is two hops either way around row 0;
    // the tie goes East (1->2->3), not West (1->0->3).
    EnergyModel e;
    TorusNetwork net(meshCfg(16, 4), e);
    net.unicast(1, 3, 1, 0);
    expectOccupiesExactly(net, {gridLink(1, 0), gridLink(2, 0)});
}

TEST(Torus, HalfColumnTieGoesSouth)
{
    // 4x4 torus: (1,0) -> (1,2) is two hops either way around column
    // 1; the tie goes South (1->5->9), not North (1->13->9).
    EnergyModel e;
    TorusNetwork net(meshCfg(16, 4), e);
    net.unicast(1, 9, 1, 0);
    expectOccupiesExactly(net, {gridLink(1, 2), gridLink(5, 2)});
}

TEST(Torus, BroadcastOccupiesRingTreeLinks)
{
    // 4x4 torus, broadcast from tile 5 = (x=1, y=1). Along row 1, East
    // covers width/2 = 2 nodes (5->6->7) and West the rest (5->4);
    // then every column expands South over height/2 = 2 rows
    // ((x,1)->(x,2)->(x,3)) and North over the rest ((x,1)->(x,0)).
    EnergyModel e;
    TorusNetwork net(meshCfg(16, 4), e);
    std::vector<Cycle> arrivals;
    net.broadcast(5, 1, 0, arrivals);

    std::vector<std::uint32_t> tree = {gridLink(5, 0), gridLink(6, 0),
                                       gridLink(5, 1)};
    for (CoreId x = 0; x < 4; ++x) {
        tree.push_back(gridLink(4 + x, 2));
        tree.push_back(gridLink(8 + x, 2));
        tree.push_back(gridLink(4 + x, 3));
    }
    ASSERT_EQ(tree.size(), 15u); // N-1 tree links
    expectOccupiesExactly(net, tree);
}

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

TEST(Ring, ShorterArcHopCounts)
{
    EnergyModel e;
    RingNetwork net(meshCfg(16, 4), e);
    EXPECT_EQ(net.hopCount(0, 0), 0u);
    EXPECT_EQ(net.hopCount(0, 15), 1u); // wraparound edge
    EXPECT_EQ(net.hopCount(15, 0), 1u);
    EXPECT_EQ(net.hopCount(0, 8), 8u);  // the diameter
    EXPECT_EQ(net.hopCount(3, 7), 4u);
    EXPECT_EQ(net.hopCount(7, 3), 4u);
}

TEST(Ring, UnicastMatchesIdealWithoutContention)
{
    EnergyModel e;
    RingNetwork net(meshCfg(16, 4), e);
    const Cycle t = net.unicast(0, 15, 9, 1000);
    EXPECT_EQ(t, 1000 + net.idealLatency(0, 15, 9));
    EXPECT_EQ(net.stats().flitHops, 9u); // one wraparound hop
}

TEST(Ring, BroadcastExpandsBothArcs)
{
    EnergyModel e;
    RingNetwork net(meshCfg(16, 4), e);
    std::vector<Cycle> arrivals;
    const Cycle max_t = net.broadcast(3, 1, 100, arrivals);
    ASSERT_EQ(arrivals.size(), 16u);
    for (CoreId c = 0; c < 16; ++c) {
        if (c == 3)
            continue;
        EXPECT_GE(arrivals[c], 100 + net.idealLatency(3, c, 1))
            << "core " << c;
    }
    // N-1 arc links, 1 flit each, single injection; the farthest node
    // (the clockwise arc's end, 8 hops away) bounds the release.
    EXPECT_EQ(net.stats().flitHops, 15u);
    EXPECT_EQ(net.stats().flitsInjected, 1u);
    EXPECT_EQ(max_t, 100 + net.idealLatency(3, 11, 1));
}

TEST(Ring, HalfRingTieGoesClockwise)
{
    // 16-node ring: 3 -> 11 is N/2 = 8 hops either way; the tie goes
    // clockwise (3->4->...->11). Link ids are node*2 + {CW=0, CCW=1}.
    EnergyModel e;
    RingNetwork net(meshCfg(16, 4), e);
    net.unicast(3, 11, 1, 0);
    std::vector<std::uint32_t> arc;
    for (CoreId at = 3; at < 11; ++at)
        arc.push_back(at * 2);
    expectOccupiesExactly(net, arc);
}

TEST(Ring, HigherDiameterThanMesh)
{
    EnergyModel e1, e2;
    MeshNetwork mesh(meshCfg(64, 8), e1);
    RingNetwork ring(meshCfg(64, 8), e2);
    EXPECT_EQ(ring.hopCount(0, 32), 32u);  // ring diameter: N/2
    EXPECT_EQ(mesh.hopCount(0, 32), 4u);
}

// ---------------------------------------------------------------------------
// Crossbar
// ---------------------------------------------------------------------------

TEST(Crossbar, UniformSingleHopLatency)
{
    EnergyModel e;
    CrossbarNetwork net(meshCfg(64, 8), e);
    EXPECT_EQ(net.hopCount(0, 1), 1u);
    EXPECT_EQ(net.hopCount(0, 63), 1u);
    EXPECT_EQ(net.hopCount(5, 5), 0u);
    // hops * 2 + (flits - 1), independent of the pair.
    EXPECT_EQ(net.idealLatency(0, 1, 9), net.idealLatency(0, 63, 9));
    const Cycle t = net.unicast(0, 63, 9, 1000);
    EXPECT_EQ(t, 1000 + net.idealLatency(0, 63, 9));
    EXPECT_EQ(net.stats().flitHops, 9u);
}

TEST(Crossbar, OutputPortContention)
{
    EnergyModel e;
    CrossbarNetwork net(meshCfg(16, 4), e);
    // Two senders to the same destination contend on its output port;
    // two senders to different destinations do not.
    const Cycle a = net.unicast(0, 5, 8, 0);
    const Cycle b = net.unicast(1, 5, 8, 0);
    EXPECT_GT(b, a);
    EXPECT_GE(net.stats().contentionCycles, 7u);
    EnergyModel e2;
    CrossbarNetwork clean(meshCfg(16, 4), e2);
    EXPECT_EQ(clean.unicast(0, 5, 8, 0), clean.unicast(1, 6, 8, 0));
    EXPECT_EQ(clean.stats().contentionCycles, 0u);
}

TEST(Crossbar, BroadcastSerializesUnicasts)
{
    EnergyModel e;
    CrossbarNetwork net(meshCfg(16, 4), e);
    EXPECT_FALSE(net.hasNativeBroadcast());
    std::vector<Cycle> arrivals;
    const std::uint32_t flits = 4;
    const Cycle max_t = net.broadcast(3, flits, 200, arrivals);
    ASSERT_EQ(arrivals.size(), 16u);
    EXPECT_EQ(arrivals[3], 200u);

    // Emulation: one unicast per destination, injected back-to-back
    // at one flit per cycle — (N-1)*flits injected flits and hops,
    // versus a single injection and N-1 tree links on the mesh.
    EXPECT_EQ(net.stats().broadcasts, 1u);
    EXPECT_EQ(net.stats().unicasts, 15u);
    EXPECT_EQ(net.stats().flitsInjected, 15u * flits);
    EXPECT_EQ(net.stats().flitHops, 15u * flits);

    // The i-th copy (CoreId order, source skipped) departs i*flits
    // later; distinct output ports mean no port contention, so each
    // arrival is exactly its injection plus the uniform latency.
    std::uint64_t i = 0;
    for (CoreId c = 0; c < 16; ++c) {
        if (c == 3)
            continue;
        EXPECT_EQ(arrivals[c],
                  200 + i * flits + net.idealLatency(3, c, flits))
            << "core " << c;
        ++i;
    }
    EXPECT_EQ(max_t, arrivals[15]);
}

TEST(Crossbar, EmulatedBroadcastCostsMoreThanMeshTree)
{
    EnergyModel e1, e2;
    MeshNetwork mesh(meshCfg(64, 8), e1);
    CrossbarNetwork xbar(meshCfg(64, 8), e2);
    std::vector<Cycle> arrivals;
    mesh.broadcast(0, 8, 0, arrivals);
    xbar.broadcast(0, 8, 0, arrivals);
    EXPECT_GT(xbar.stats().flitsInjected, mesh.stats().flitsInjected);
    EXPECT_GT(e2.breakdown().link, 0.0);
}

// ---------------------------------------------------------------------------
// Table-driven path == hop-by-hop reference replay (all topologies)
// ---------------------------------------------------------------------------

/** Deterministic 64-bit LCG (tests must not depend on libstdc++). */
struct Lcg
{
    std::uint64_t s;
    std::uint32_t
    next(std::uint32_t m)
    {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<std::uint32_t>((s >> 33) % m);
    }
};

/**
 * Drive two identically-configured instances of one topology through
 * the same randomized (src, dst, flits, depart) message sequence —
 * `table` via the table-driven hot path, `ref` via the reference
 * replay that rebuilds each route and schedule through the topology
 * hooks and accounts per hop — and require bit-identical timing,
 * arrivals, traffic stats, and per-link flit accounting.
 */
void
expectPathsEquivalent(NetworkModel &table, NetworkModel &ref,
                      std::uint32_t cores, std::uint32_t links,
                      std::uint64_t seed)
{
    Lcg rng{seed};
    std::vector<Cycle> arr_table, arr_ref;
    Cycle clock = 0;
    for (int i = 0; i < 2000; ++i) {
        const auto src = static_cast<CoreId>(rng.next(cores));
        const auto dst = static_cast<CoreId>(rng.next(cores));
        const std::uint32_t flits = 1 + rng.next(9);
        clock += rng.next(5);
        if (rng.next(8) == 0) {
            const Cycle a = table.broadcast(src, flits, clock,
                                            arr_table);
            const Cycle b = ref.referenceBroadcast(src, flits, clock,
                                                   arr_ref);
            ASSERT_EQ(a, b) << "broadcast " << i << " from " << src;
            ASSERT_EQ(arr_table, arr_ref)
                << "broadcast " << i << " from " << src;
        } else {
            ASSERT_EQ(table.unicast(src, dst, flits, clock),
                      ref.referenceUnicast(src, dst, flits, clock))
                << "unicast " << i << ": " << src << "->" << dst;
        }
    }

    EXPECT_EQ(table.stats().unicasts, ref.stats().unicasts);
    EXPECT_EQ(table.stats().broadcasts, ref.stats().broadcasts);
    EXPECT_EQ(table.stats().flitsInjected, ref.stats().flitsInjected);
    EXPECT_EQ(table.stats().flitHops, ref.stats().flitHops);
    EXPECT_EQ(table.stats().contentionCycles,
              ref.stats().contentionCycles);
    for (std::uint32_t l = 0; l < links; ++l)
        ASSERT_EQ(table.linkFlits(l), ref.linkFlits(l)) << "link " << l;
}

/** links-per-core of each factory topology (mesh/torus 4, ring 2,
 *  crossbar 1). */
std::uint32_t
linksPerCore(const std::string &name)
{
    if (name == "ring")
        return 2;
    if (name == "xbar")
        return 1;
    return 4;
}

TEST(TableEquivalence, AllTopologiesWithContention)
{
    std::uint64_t seed = 1;
    for (const auto &name : networkNames()) {
        SystemConfig cfg = meshCfg(16, 4);
        applyNetworkName(cfg, name);
        EnergyModel e1, e2;
        const auto table = makeNetwork(cfg, e1);
        const auto ref = makeNetwork(cfg, e2);
        expectPathsEquivalent(*table, *ref, cfg.numCores,
                              cfg.numCores * linksPerCore(name),
                              seed++);
        EXPECT_EQ(e1.counts().linkFlits, e2.counts().linkFlits) << name;
        EXPECT_EQ(e1.counts().routerFlits, e2.counts().routerFlits)
            << name;
    }
}

TEST(TableEquivalence, NonSquareMeshAndTorus)
{
    // Rectangular geometry exercises the distinct row/column chain
    // lengths of the broadcast schedules.
    std::uint64_t seed = 7;
    for (const std::string name : {"mesh", "torus"}) {
        SystemConfig cfg = meshCfg(8, 4); // 4x2
        applyNetworkName(cfg, name);
        EnergyModel e1, e2;
        const auto table = makeNetwork(cfg, e1);
        const auto ref = makeNetwork(cfg, e2);
        expectPathsEquivalent(*table, *ref, cfg.numCores,
                              cfg.numCores * 4, seed++);
    }
}

TEST(TableEquivalence, TableFootprintIsReported)
{
    EnergyModel e;
    MeshNetwork net(meshCfg(16, 4), e);
    // 16 cores: 256 routes + their link spans + 16 broadcast
    // schedules of 15 hops each — nonzero and well under a megabyte.
    EXPECT_GT(net.tableFootprintBytes(), 0u);
    EXPECT_LT(net.tableFootprintBytes(), 1u << 20);
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

TEST(NetFactory, BuildsEveryRegisteredTopology)
{
    EXPECT_EQ(networkNames(),
              (std::vector<std::string>{"mesh", "torus", "ring",
                                        "xbar"}));
    for (const auto &name : networkNames()) {
        SystemConfig cfg = meshCfg(16, 4);
        applyNetworkName(cfg, name);
        EXPECT_STREQ(networkNameFor(cfg), name.c_str());
        EnergyModel e;
        const auto net = makeNetwork(cfg, e);
        ASSERT_NE(net, nullptr);
        EXPECT_STREQ(net->name(), name.c_str());
        // Polymorphic sanity: local delivery is free everywhere and
        // distinct tiles are at least one hop apart.
        EXPECT_EQ(net->hopCount(2, 2), 0u);
        EXPECT_GE(net->hopCount(0, 9), 1u);
        EXPECT_EQ(net->unicast(2, 2, 4, 77), 77u);
    }
}

TEST(NetFactory, DefaultConfigSelectsMesh)
{
    const SystemConfig cfg;
    EXPECT_EQ(cfg.networkKind, NetworkKind::Mesh);
    EXPECT_STREQ(networkNameFor(cfg), "mesh");
}

} // namespace
} // namespace lacc
