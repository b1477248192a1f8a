/**
 * @file
 * The pluggable on-chip interconnect layer.
 *
 * The paper evaluates LACC on one fabric — an electrical 2-D mesh
 * with native broadcast support (§3.1, Table 1) — but the protocol's
 * headline mechanism (ACKwise_p falling back to broadcast on pointer
 * overflow) is exactly the part whose cost depends on what the
 * network makes cheap. NetworkModel abstracts the fabric the same way
 * protocol/protocol.hh abstracts the coherence engine: unicast and
 * broadcast timing, hop/distance accounting, per-message energy
 * charging, and contention bookkeeping all live behind this
 * interface, and concrete topologies (net/mesh.hh, net/torus.hh,
 * net/ring.hh, net/crossbar.hh) are built by a config-keyed factory
 * (net/factory.hh).
 *
 * Shared timing model (all link-based topologies):
 *  - hop latency hopLatency cycles: 1 router + 1 link pipeline stage
 *    per hop;
 *  - wormhole serialization: a message of F flits arrives F-1 cycles
 *    after its head flit;
 *  - contention is modeled on directed links only, with infinite
 *    input buffers: each link carries one flit per cycle. Queueing
 *    uses a windowed backlog model (like Graphite's
 *    lax-synchronization queue models): each link tracks the flit
 *    backlog accumulated in the current time window, drains it at
 *    link rate, and delays a message by the undrained backlog ahead
 *    of it. Unlike an absolute next-free-cycle booking, this
 *    tolerates the small timestamp reordering inherent to per-core
 *    clocks: a message from a slightly lagging core sees the same
 *    backlog instead of paying the whole clock skew as phantom
 *    queueing.
 *
 * The hot path is table-driven (docs/ARCHITECTURE.md "Route tables &
 * broadcast schedules"): at construction every topology enumerates
 * its routes once into a flat RouteTable — for each (src, dst) pair a
 * contiguous span of directed link ids plus the hop count — and one
 * BroadcastTree schedule per source: a topologically-ordered list of
 * (link, parent, child) hops whose head-flit times chain through a
 * reusable scratch array. unicast()/broadcast()/hopCount() are
 * therefore non-virtual base-class loops with no per-hop coordinate
 * math, no per-call allocation, and per-message (not per-hop)
 * stats/energy accumulation; with modelContention off, arrival times
 * come straight from the precomputed hop counts. The original
 * hop-by-hop walkers survive as the virtual reference*() debug path,
 * and tests/test_net.cc pins the two paths to identical timing and
 * link-flit accounting on every topology.
 */

#ifndef LACC_NET_NETWORK_HH
#define LACC_NET_NETWORK_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "energy/model.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace lacc {

class FaultInjector;

/**
 * Abstract interconnect shared by all tiles of a Multicore. Concrete
 * topologies enumerate their routing (buildRoute) and broadcast trees
 * (buildBroadcastSchedule) once at construction; the base class owns
 * the precomputed tables, the directed-link contention state, traffic
 * statistics, energy charging, and the congestion diagnostics, so
 * every topology accounts traffic the same way and pays the same
 * (table-driven) per-message cost.
 */
class NetworkModel
{
  public:
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
     * @param cfg       system configuration (geometry, flit widths,
     *                  hop latency, contention flag)
     * @param energy    whole-system energy accumulator
     * @param num_links directed links (contention/diagnostic slots)
     *                  this topology models
     */
    NetworkModel(const SystemConfig &cfg, EnergyModel &energy,
                 std::uint32_t num_links);
    virtual ~NetworkModel() = default;

    /** Factory key of this topology, e.g. "mesh" or "xbar". */
    virtual const char *name() const = 0;

    /**
     * Routing distance between two tiles in links traversed
     * (0 for src == dst). Drives Message::hops and idealLatency().
     * Table lookup — no virtual dispatch, no coordinate math.
     */
    std::uint32_t hopCount(CoreId src, CoreId dst) const
    {
        return routes_[routeIndex(src, dst)].hops;
    }

    /**
     * Send a unicast message and return its arrival time (time the
     * last flit is ejected at @p dst). Accounts link contention and
     * router/link energy. Table-driven: walks the precomputed link
     * span; with modelContention off the arrival is computed
     * analytically from the hop count.
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
     * source receives its copy at depart, or with the tail flit when
     * selfArrivalAtTail()). Topologies with native
     * broadcast (hasNativeBroadcast()) deliver with a single
     * injection along a spanning tree; others emulate it (e.g. the
     * crossbar serializes one unicast per destination). Table-driven:
     * one pass over the per-source BroadcastTree schedule.
     *
     * @return the maximum arrival time over all tiles.
     */
    Cycle broadcast(CoreId src, std::uint32_t flits, Cycle depart,
                    std::vector<Cycle> &arrivals);

    /**
     * Whether one injection reaches every tile (router replication,
     * §3.1). When false, every broadcast pays one serialized unicast
     * per destination — ACKwise overflow actually hurts.
     */
    virtual bool hasNativeBroadcast() const = 0;

    /**
     * Whether the source's own broadcast copy arrives with the tail
     * flit (depart + flits - 1) instead of at depart. The X-then-Y
     * trees (mesh/torus) re-deliver through the source router after
     * serializing the payload; the ring arcs and crossbar ports hand
     * the source its copy at injection time.
     */
    virtual bool selfArrivalAtTail() const { return false; }

    /**
     * Debug reference path: the original hop-by-hop unicast walker
     * (per-hop coordinate math / virtual dispatch). Mutates the same
     * contention/stats state as unicast(); tests drive a second,
     * identically-configured instance through this path and assert
     * bit-identical timing and accounting against the table-driven
     * one. Not used on the simulation hot path.
     */
    virtual Cycle referenceUnicast(CoreId src, CoreId dst,
                                   std::uint32_t flits,
                                   Cycle depart) = 0;

    /** Debug reference path for broadcast(); see referenceUnicast. */
    virtual Cycle referenceBroadcast(CoreId src, std::uint32_t flits,
                                     Cycle depart,
                                     std::vector<Cycle> &arrivals) = 0;

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

    /** Reset traffic counters only (links stay occupied). */
    void resetStats() { stats_ = NetworkStats{}; }

    /**
     * Become an exact copy of @p o's mutable state — link backlogs,
     * per-link diagnostics, traffic stats, the latched fault — for a
     * network of the same config (Multicore::restoreFrom). The tables
     * are config-derived and stay. Topologies keep no mutable state of
     * their own; one that adds some must copy it here too.
     */
    void restoreFrom(const NetworkModel &o);

    /** Directed links this topology models. */
    std::uint32_t
    numLinks() const
    {
        return static_cast<std::uint32_t>(links_.size());
    }

    /**
     * Diagnostic: (link id, queueing cycles) of the worst links,
     * ordered by (queueing desc, link id asc) — a deterministic total
     * order, so equal-queueing links never reorder across runs.
     */
    std::vector<std::pair<std::uint32_t, std::uint64_t>>
    topCongestedLinks(std::size_t n) const;

    /** Diagnostic: describe a directed link id as text. */
    virtual std::string describeLink(std::uint32_t link) const;

    /** Diagnostic: flits carried by a directed link. */
    std::uint64_t linkFlits(std::uint32_t link) const
    {
        return linkFlits_[link];
    }

    /**
     * Bytes held by the precomputed route table and broadcast
     * schedules (docs/ARCHITECTURE.md discusses the footprint scaling
     * per topology; tests sanity-check it).
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

  protected:
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
        if (modelContention_) {
            LinkState &ls = links_[link];
            const Cycle w = head_at_link / kWindow;
            if (w > ls.windowId) {
                // The link drains one flit per cycle between windows.
                const std::uint64_t drained =
                    (w - ls.windowId) * kWindow;
                ls.backlog = ls.backlog > drained
                                 ? ls.backlog - drained
                                 : 0;
                ls.windowId = w;
            }
            // Work queued ahead minus what drained since window
            // start; messages from slightly lagging clocks
            // (w < windowId) see the current backlog without paying
            // the skew itself.
            const Cycle elapsed =
                w >= ls.windowId ? head_at_link % kWindow : 0;
            if (ls.backlog > elapsed) {
                const Cycle wait = ls.backlog - elapsed;
                stats_.contentionCycles += wait;
                linkQueueing_[link] += wait;
                head_at_link += wait;
            }
            ls.backlog += flits;
        }
        linkFlits_[link] += flits;
        return head_at_link + (hopLatency_ - 1);
    }

    /**
     * Topology hook (construction time only): append the directed
     * link ids of the src -> dst route, in traversal order. Never
     * called with src == dst.
     */
    virtual void buildRoute(CoreId src, CoreId dst,
                            std::vector<std::uint32_t> &out) const = 0;

    /**
     * Topology hook (construction time only): append the broadcast
     * schedule rooted at @p src, in the exact traversal order of the
     * reference walker (contention-state updates are order-sensitive,
     * and the equivalence tests hold the two paths bit-identical).
     * Every non-source tile must appear exactly once as a child, and
     * every parent must be the source or an earlier child.
     */
    virtual void
    buildBroadcastSchedule(CoreId src,
                           std::vector<TreeHop> &out) const = 0;

    /**
     * Build the route table and broadcast schedules from the topology
     * hooks, validate them, and derive the per-broadcast batched
     * stat/energy factors. MUST be called at the end of every
     * concrete topology's constructor (the hooks are virtual).
     */
    void finalizeTables();

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

    std::uint32_t numCores_;
    std::uint32_t hopLatency_;
    bool modelContention_;

    EnergyModel &energy_;
    NetworkStats stats_;

    // Fault-injection hook state (a run's traversals all happen on
    // its one event-loop thread).
    FaultInjector *fault_ = nullptr;
    bool faultPending_ = false;
    bool faultDrop_ = false;

  private:
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
        bool srcHearsTail = false;           //!< selfArrivalAtTail()
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

    std::vector<LinkState> links_;
    std::vector<std::uint64_t> linkQueueing_; //!< per-link diagnostics
    std::vector<std::uint64_t> linkFlits_;    //!< per-link load

    // ---- Precomputed tables (finalizeTables) --------------------------
    std::vector<Route> routes_;            //!< numCores^2, src-major
    std::vector<std::uint32_t> linkSeq_;   //!< concatenated route spans
    std::vector<std::uint32_t> treeOffsets_; //!< per-source, size N+1
    std::vector<TreeHop> treeHops_;        //!< concatenated schedules
    BroadcastMeta bmeta_;
    std::vector<Cycle> headScratch_;       //!< per-node head-flit times
};

} // namespace lacc

#endif // LACC_NET_NETWORK_HH
