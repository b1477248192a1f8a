/**
 * @file
 * The on-chip interconnect.
 *
 * The paper evaluates LACC on one fabric — an electrical 2-D mesh
 * with native broadcast support (§3.1, Table 1) — but the protocol's
 * headline mechanism (ACKwise_p falling back to broadcast on pointer
 * overflow) is exactly the part whose cost depends on what the
 * network makes cheap. NetworkModel is that fabric: unicast and
 * broadcast timing, hop/distance accounting, per-message energy
 * charging, and contention bookkeeping. SystemConfig::networkKind
 * picks one row of the fabric table in net/network.cc:
 *  - mesh:  a meshWidth x meshHeight grid, XY routing;
 *  - torus: the same grid with both dimensions wrapping around;
 *  - ring:  a numCores x 1 grid that wraps (one clockwise and one
 *           counter-clockwise link per tile);
 *  - xbar:  a crossbar, one switch traversal per unicast and no
 *           native broadcast.
 *
 * Shared timing model (every fabric):
 *  - hop latency hopLatency cycles: 1 router + 1 link pipeline stage
 *    per hop;
 *  - wormhole serialization: a message of F flits arrives F-1 cycles
 *    after its head flit;
 *  - contention is modeled on directed links only, with infinite
 *    input buffers (Table 1, "link contention only"): each link
 *    carries one flit per cycle. Queueing uses a windowed backlog
 *    model (like Graphite's lax-synchronization queue models): each
 *    link tracks the flit backlog accumulated in the current time
 *    window, drains it at link rate, and delays a message by the
 *    undrained backlog ahead of it. Unlike an absolute
 *    next-free-cycle booking, this tolerates the small timestamp
 *    reordering inherent to per-core clocks: a message from a
 *    slightly lagging core sees the same backlog instead of paying
 *    the whole clock skew as phantom queueing.
 *
 * Each route is stated once, in two functions: buildRoute (the
 * directed links of one src -> dst unicast) and
 * buildBroadcastSchedule (the (link, parent, child) hops of one
 * source's broadcast tree). On a grid both are dimension order: X
 * along the source row, then Y along the destination column. The
 * constructor enumerates them into a flat RouteTable — for each
 * (src, dst) pair a contiguous span of link ids plus the hop count —
 * and one topologically-ordered schedule per source whose head-flit
 * times chain through a reusable scratch array (docs/ARCHITECTURE.md
 * "Route tables & broadcast schedules"). unicast()/broadcast()/
 * hopCount() are therefore loops with no per-hop coordinate math, no
 * per-call allocation, and per-message (not per-hop) stats/energy
 * accumulation. referenceUnicast()/referenceBroadcast() replay the
 * same two functions hop by hop with per-hop accounting;
 * tests/test_net.cc pins the tables, the scratch-head walk and the
 * batched broadcast accounting to that replay on every fabric.
 */

#ifndef LACC_NET_NETWORK_HH
#define LACC_NET_NETWORK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "energy/model.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace lacc {

class FaultInjector;
struct NetworkEntry;

/**
 * The interconnect shared by all tiles of a Multicore. The
 * constructor enumerates the fabric's routing (buildRoute) and
 * broadcast trees (buildBroadcastSchedule) once; the model owns the
 * precomputed tables, the directed-link contention state, traffic
 * statistics and energy charging, so every fabric accounts traffic
 * the same way and pays the same (table-driven) per-message cost.
 */
class NetworkModel
{
  public:
    /**
     * Build the fabric @p cfg.networkKind selects, with its route
     * table and broadcast schedules; fatal() on a bad hop latency or
     * a route or tree that leaves the fabric.
     *
     * @param cfg    system configuration (fabric, geometry, hop latency)
     * @param energy whole-system energy accumulator; must outlive
     *               the model
     */
    NetworkModel(const SystemConfig &cfg, EnergyModel &energy);

    /** Name of this fabric, e.g. "mesh" or "xbar". */
    const char *name() const;

    /**
     * Whether one injection reaches every tile (router replication,
     * §3.1). When false, every broadcast pays one serialized unicast
     * per destination — ACKwise overflow actually hurts.
     */
    bool hasNativeBroadcast() const;

    /**
     * Routing distance between two tiles in links traversed
     * (0 for src == dst). Drives idealLatency(). Table lookup — no
     * coordinate math.
     */
    std::uint32_t hopCount(CoreId src, CoreId dst) const
    {
        return routes_[routeIndex(src, dst)].hops;
    }

    /**
     * Send a unicast message and return its arrival time (time the
     * last flit is ejected at @p dst). Accounts link contention and
     * router/link energy. Table-driven: walks the precomputed link
     * span.
     *
     * @param src    source tile
     * @param dst    destination tile
     * @param flits  total message length including header
     * @param depart injection time at the source
     */
    Cycle unicast(CoreId src, CoreId dst, std::uint32_t flits,
                  Cycle depart);

    /**
     * Broadcast from @p src to all tiles. Arrival times (last flit)
     * per tile are written to @p arrivals (indexed by CoreId; the
     * source receives its copy at depart, or with the tail flit on
     * the fabrics whose X-then-Y tree re-delivers through the source
     * router). A native broadcast (hasNativeBroadcast()) is a single
     * injection along a spanning tree; the crossbar emulates it with
     * one serialized unicast per destination. Table-driven: one pass
     * over the per-source schedule.
     *
     * @return the maximum arrival time over all tiles.
     */
    Cycle broadcast(CoreId src, std::uint32_t flits, Cycle depart,
                    std::vector<Cycle> &arrivals);

    /**
     * Test reference for unicast(): rebuilds the route through
     * buildRoute and crosses it one traverseLink at a time, charging
     * stats and energy per hop. Mutates the same state as unicast();
     * tests drive a second, identically-configured instance through
     * this path and assert bit-identical timing and accounting against
     * the tables. Allocates per call; not for the simulation path.
     */
    Cycle referenceUnicast(CoreId src, CoreId dst, std::uint32_t flits,
                           Cycle depart);

    /**
     * Test reference for broadcast(): rebuilds the schedule through
     * buildBroadcastSchedule and crosses it hop by hop. A native
     * broadcast is one injection, replicated by the source router and
     * then by one router per hop; an emulated one is one
     * referenceUnicast per hop. See referenceUnicast.
     */
    Cycle referenceBroadcast(CoreId src, std::uint32_t flits,
                             Cycle depart, std::vector<Cycle> &arrivals);

    /**
     * Contention-free latency of a unicast (test/analysis helper):
     * hops * hopLatency + (flits - 1).
     */
    Cycle idealLatency(CoreId src, CoreId dst, std::uint32_t flits) const
    {
        return static_cast<Cycle>(hopCount(src, dst)) * hopLatency_ +
               (flits > 0 ? flits - 1 : 0);
    }

    /** Traffic counters for this network. */
    const NetworkStats &stats() const { return stats_; }

    /** Reset traffic counters and link state (tables persist). */
    void reset();

    /**
     * Become an exact copy of @p o's mutable state — link backlogs,
     * per-link flit loads, traffic stats, the latched fault — for a
     * network of the same config (Multicore::restoreFrom). The tables
     * are config-derived and stay.
     */
    void restoreFrom(const NetworkModel &o);

    /** Directed links this fabric models. */
    std::uint32_t
    numLinks() const
    {
        return static_cast<std::uint32_t>(links_.size());
    }

    /** Flits carried by a directed link. */
    std::uint64_t linkFlits(std::uint32_t link) const
    {
        return linkFlits_[link];
    }

    /**
     * Bytes held by the precomputed route table and broadcast
     * schedules (docs/ARCHITECTURE.md discusses the footprint scaling
     * per fabric; tests sanity-check it).
     */
    std::size_t tableFootprintBytes() const;

    /**
     * Attach (or detach, with nullptr) the lossy-link fault process
     * (fault/injector.hh). Wired by the Multicore when a non-none
     * FaultPlan with active link faults is selected; the detached
     * state costs exactly one untaken branch per link traversal
     * (pinned by bench_micro).
     */
    void setFaultInjector(FaultInjector *fi) { fault_ = fi; }

    /**
     * Latched fault of the most recent unicast/broadcast, cleared by
     * reading. @p was_drop distinguishes a lost message (source
     * timeout) from a corrupted one (destination NACK). The message
     * transport consumes this after every send to drive its
     * retransmit path. @return false when the traversal was clean.
     */
    bool
    consumeTraversalFault(bool &was_drop)
    {
        if (!faultPending_)
            return false;
        was_drop = faultDrop_;
        faultPending_ = false;
        return true;
    }

  private:
    /**
     * One hop of a broadcast-tree schedule: the head flit leaves
     * @p parent (plus delayFactor * flits injection-serialization
     * cycles, used by emulated broadcasts) and crosses directed link
     * @p link to @p child. Schedules are topologically ordered: a
     * hop's parent head time is always computed by an earlier entry
     * (or is the source's departure time).
     */
    struct TreeHop
    {
        std::uint32_t link = 0;
        CoreId parent = 0;
        CoreId child = 0;
        /** Injection serialization: head departs parent_head +
         *  delayFactor * flits (0 for native broadcast trees). */
        std::uint32_t delayFactor = 0;
    };

    /**
     * Append the directed link ids of the src -> dst route, in
     * traversal order. Called by the constructor and by
     * referenceUnicast; never with src == dst.
     */
    void buildRoute(CoreId src, CoreId dst,
                    std::vector<std::uint32_t> &out) const;

    /**
     * Append the broadcast schedule rooted at @p src, in traversal
     * order (contention-state updates are order-sensitive, so the
     * order is part of the timing model). Called by the constructor
     * and by referenceBroadcast. Every non-source tile appears
     * exactly once as a child, and every parent is the source or an
     * earlier child.
     */
    void buildBroadcastSchedule(CoreId src,
                                std::vector<TreeHop> &out) const;

    /**
     * Route one message across a single directed link, applying the
     * windowed-backlog contention model (see the file header).
     * Header-inline so the table-driven span loop compiles to a tight
     * non-calling loop.
     *
     * @param link  directed link id in [0, num_links)
     * @param t     head-flit time at the link's input
     * @param flits message length
     * @return head-flit time at the link's output
     */
    Cycle
    traverseLink(std::uint32_t link, Cycle t, std::uint32_t flits)
    {
        // Router stage, then link stage. The head flit wants the link
        // at t + 1; with link-only contention it may have to queue
        // behind the link's undrained backlog (see the file header).
        Cycle head_at_link = t + 1;
        // Fault hook: the entire disabled cost is this one untaken
        // branch; the roll itself is out-of-line.
        if (fault_ != nullptr)
            rollLinkFault(link, head_at_link, flits);
        LinkState &ls = links_[link];
        const Cycle w = head_at_link / kWindow;
        if (w > ls.windowId) {
            // The link drains one flit per cycle between windows.
            const std::uint64_t drained = (w - ls.windowId) * kWindow;
            ls.backlog = ls.backlog > drained ? ls.backlog - drained : 0;
            ls.windowId = w;
        }
        // Work queued ahead minus what drained since window start;
        // messages from slightly lagging clocks (w < windowId) see the
        // current backlog without paying the skew itself.
        const Cycle elapsed = w >= ls.windowId ? head_at_link % kWindow : 0;
        if (ls.backlog > elapsed) {
            const Cycle wait = ls.backlog - elapsed;
            stats_.contentionCycles += wait;
            head_at_link += wait;
        }
        ls.backlog += flits;
        linkFlits_[link] += flits;
        return head_at_link + (hopLatency_ - 1);
    }

    /**
     * Roll the seeded per-link Bernoulli fault process for one
     * traversal and latch the outcome for consumeTraversalFault().
     * The first fault of a multi-link route wins (the message dies at
     * the first bad link; later links still charge flits/energy — a
     * deliberate upper bound that keeps the table-driven batched
     * accounting intact).
     */
    void rollLinkFault(std::uint32_t link, Cycle t,
                       std::uint32_t flits);

    /** One (src, dst) route: a span of linkSeq_ plus its length. */
    struct Route
    {
        std::uint32_t offset = 0;
        std::uint32_t hops = 0;
    };

    /**
     * Batched per-broadcast accounting, derived from the schedule
     * size and hasNativeBroadcast(): one native injection occupies
     * schedule-size tree links and every router once; an emulated
     * broadcast is schedule-size serialized unicasts.
     */
    struct BroadcastMeta
    {
        std::uint64_t flitHopFactor = 0;     //!< x flits -> flitHops
        std::uint64_t linkEnergyFactor = 0;  //!< x flits -> link energy
        std::uint64_t routerEnergyFactor = 0;//!< x flits -> router energy
        std::uint64_t injectedFactor = 0;    //!< x flits -> flitsInjected
        std::uint64_t extraUnicasts = 0;     //!< unicast count (emulated)
    };

    std::size_t
    routeIndex(CoreId src, CoreId dst) const
    {
        return static_cast<std::size_t>(src) * numCores_ + dst;
    }

    /** Windowed backlog state of one directed link. */
    struct LinkState
    {
        Cycle windowId = 0;        //!< current window index
        std::uint64_t backlog = 0; //!< undrained flits in the window
    };

    /** Window length in cycles (power of two; also the drain rate). */
    static constexpr Cycle kWindow = 64;

    /** This fabric's row of the table in net/network.cc. */
    const NetworkEntry &fabric_;
    std::uint32_t numCores_;
    std::uint32_t width_;  //!< grid columns (the row length)
    std::uint32_t height_; //!< grid rows
    std::uint32_t hopLatency_;
    EnergyModel &energy_;
    NetworkStats stats_;

    // Fault-injection hook state (a run's traversals all happen on
    // its one event-loop thread).
    FaultInjector *fault_ = nullptr;
    bool faultPending_ = false;
    bool faultDrop_ = false;

    std::vector<LinkState> links_;
    std::vector<std::uint64_t> linkFlits_; //!< per-link load

    // ---- Precomputed tables (constructor) -----------------------------
    std::vector<Route> routes_;            //!< numCores^2, src-major
    std::vector<std::uint32_t> linkSeq_;   //!< concatenated route spans
    std::vector<std::uint32_t> treeOffsets_; //!< per-source, size N+1
    std::vector<TreeHop> treeHops_;        //!< concatenated schedules
    BroadcastMeta bmeta_;
    std::vector<Cycle> headScratch_;       //!< per-node head-flit times
};

/**
 * Registered fabric names, in table order:
 * {"mesh", "torus", "ring", "xbar"}.
 */
const std::vector<std::string> &networkNames();

/** Name of the fabric @p cfg selects. */
const char *networkNameFor(const SystemConfig &cfg);

/**
 * Reconfigure @p cfg to select the named fabric (harness sweeps by
 * name). fatal() on an unknown name, listing the valid ones.
 */
void applyNetworkName(SystemConfig &cfg, const std::string &name);

} // namespace lacc

#endif // LACC_NET_NETWORK_HH
