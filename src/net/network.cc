#include "net/network.hh"

#include <algorithm>

#include "fault/injector.hh"
#include "sim/log.hh"

namespace lacc {

NetworkModel::NetworkModel(const SystemConfig &cfg, EnergyModel &energy,
                           std::uint32_t num_links)
    : numCores_(cfg.numCores), hopLatency_(cfg.hopLatency),
      energy_(energy), links_(num_links), linkFlits_(num_links, 0)
{
    if (hopLatency_ < 2)
        fatal("hopLatency must be >= 2 (1 router + 1 link cycle)");
}

void
NetworkModel::finalizeTables()
{
    // ---- Route table: one link-id span per ordered (src, dst) pair.
    routes_.assign(static_cast<std::size_t>(numCores_) * numCores_,
                   Route{});
    linkSeq_.clear();
    std::vector<std::uint32_t> span;
    for (std::uint32_t src = 0; src < numCores_; ++src) {
        for (std::uint32_t dst = 0; dst < numCores_; ++dst) {
            Route &r = routes_[routeIndex(static_cast<CoreId>(src),
                                          static_cast<CoreId>(dst))];
            r.offset = static_cast<std::uint32_t>(linkSeq_.size());
            if (src == dst)
                continue; // local slice: empty route
            span.clear();
            buildRoute(static_cast<CoreId>(src),
                       static_cast<CoreId>(dst), span);
            if (span.empty())
                fatal("%s: empty route %u -> %u", name(), src, dst);
            for (std::uint32_t l : span)
                if (l >= links_.size())
                    fatal("%s: route %u -> %u uses link %u of %zu",
                          name(), src, dst, l, links_.size());
            r.hops = static_cast<std::uint32_t>(span.size());
            linkSeq_.insert(linkSeq_.end(), span.begin(), span.end());
        }
    }

    // ---- Broadcast schedules: one topologically-ordered hop list
    // per source, validated to cover every non-source tile exactly
    // once with parents defined before use.
    treeOffsets_.assign(numCores_ + 1, 0);
    treeHops_.clear();
    std::vector<TreeHop> tree;
    std::vector<std::uint8_t> reached(numCores_, 0);
    for (std::uint32_t src = 0; src < numCores_; ++src) {
        tree.clear();
        buildBroadcastSchedule(static_cast<CoreId>(src), tree);
        if (tree.size() != numCores_ - 1u && numCores_ > 0)
            fatal("%s: broadcast tree of %u has %zu hops, want %u",
                  name(), src, tree.size(), numCores_ - 1);
        std::fill(reached.begin(), reached.end(), 0);
        reached[src] = 1;
        for (const TreeHop &h : tree) {
            if (h.link >= links_.size())
                fatal("%s: broadcast tree of %u uses link %u of %zu",
                      name(), src, h.link, links_.size());
            if (!reached[h.parent])
                fatal("%s: broadcast tree of %u reaches %u from "
                      "unvisited parent %u",
                      name(), src, static_cast<std::uint32_t>(h.child),
                      static_cast<std::uint32_t>(h.parent));
            if (reached[h.child])
                fatal("%s: broadcast tree of %u covers %u twice",
                      name(), src, static_cast<std::uint32_t>(h.child));
            reached[h.child] = 1;
        }
        treeHops_.insert(treeHops_.end(), tree.begin(), tree.end());
        treeOffsets_[src + 1] =
            static_cast<std::uint32_t>(treeHops_.size());
    }

    // ---- Batched per-broadcast accounting. Every schedule has
    // exactly numCores-1 hops, so the factors are global: a native
    // broadcast injects once, occupies each tree link once, and is
    // replicated by every router; an emulated one is numCores-1
    // serialized unicasts, each injecting and paying one hop.
    const std::uint64_t entries = numCores_ > 0 ? numCores_ - 1 : 0;
    bmeta_.flitHopFactor = entries;
    bmeta_.linkEnergyFactor = entries;
    if (hasNativeBroadcast()) {
        bmeta_.routerEnergyFactor = numCores_;
        bmeta_.injectedFactor = 1;
        bmeta_.extraUnicasts = 0;
    } else {
        bmeta_.routerEnergyFactor = entries;
        bmeta_.injectedFactor = entries;
        bmeta_.extraUnicasts = entries;
    }
    bmeta_.srcHearsTail = selfArrivalAtTail();

    headScratch_.assign(numCores_, 0);
}

Cycle
NetworkModel::unicast(CoreId src, CoreId dst, std::uint32_t flits,
                      Cycle depart)
{
    ++stats_.unicasts;
    stats_.flitsInjected += flits;
    if (src == dst)
        return depart; // local slice: no network traversal

    const Route r = routes_[routeIndex(src, dst)];
    const std::uint32_t *seq = linkSeq_.data() + r.offset;
    Cycle t = depart;
    for (std::uint32_t i = 0; i < r.hops; ++i)
        t = traverseLink(seq[i], t, flits);
    const std::uint64_t fh = static_cast<std::uint64_t>(flits) * r.hops;
    stats_.flitHops += fh;
    energy_.addRouter(fh);
    energy_.addLink(fh);
    // Wormhole serialization: tail arrives flits-1 cycles after head.
    return t + (flits > 0 ? flits - 1 : 0);
}

Cycle
NetworkModel::broadcast(CoreId src, std::uint32_t flits, Cycle depart,
                        std::vector<Cycle> &arrivals)
{
    ++stats_.broadcasts;
    stats_.unicasts += bmeta_.extraUnicasts;
    stats_.flitsInjected +=
        static_cast<std::uint64_t>(flits) * bmeta_.injectedFactor;
    const Cycle tail = flits > 0 ? flits - 1 : 0;
    arrivals.assign(numCores_, 0);
    arrivals[src] = depart + (bmeta_.srcHearsTail ? tail : 0);
    headScratch_[src] = depart;

    Cycle max_arrival = arrivals[src];
    const TreeHop *hops = treeHops_.data() + treeOffsets_[src];
    const std::uint32_t n = treeOffsets_[src + 1] - treeOffsets_[src];
    for (std::uint32_t i = 0; i < n; ++i) {
        const TreeHop &h = hops[i];
        const Cycle head = traverseLink(
            h.link,
            headScratch_[h.parent] +
                static_cast<Cycle>(h.delayFactor) * flits,
            flits);
        headScratch_[h.child] = head;
        const Cycle a = head + tail;
        arrivals[h.child] = a;
        if (a > max_arrival)
            max_arrival = a;
    }

    stats_.flitHops +=
        static_cast<std::uint64_t>(flits) * bmeta_.flitHopFactor;
    energy_.addLink(static_cast<std::uint64_t>(flits) *
                    bmeta_.linkEnergyFactor);
    energy_.addRouter(static_cast<std::uint64_t>(flits) *
                      bmeta_.routerEnergyFactor);
    return max_arrival;
}

Cycle
NetworkModel::referenceUnicast(CoreId src, CoreId dst,
                               std::uint32_t flits, Cycle depart)
{
    ++stats_.unicasts;
    stats_.flitsInjected += flits;
    if (src == dst)
        return depart; // local slice: no network traversal

    std::vector<std::uint32_t> route;
    buildRoute(src, dst, route);
    Cycle t = depart;
    for (const std::uint32_t link : route) {
        t = traverseLink(link, t, flits);
        stats_.flitHops += flits;
        energy_.addRouter(flits);
        energy_.addLink(flits);
    }
    return t + (flits > 0 ? flits - 1 : 0);
}

Cycle
NetworkModel::referenceBroadcast(CoreId src, std::uint32_t flits,
                                 Cycle depart,
                                 std::vector<Cycle> &arrivals)
{
    ++stats_.broadcasts;
    const bool native = hasNativeBroadcast();
    if (native) {
        // One injection, replicated first by the source router.
        stats_.flitsInjected += flits;
        energy_.addRouter(flits);
    }
    const Cycle tail = flits > 0 ? flits - 1 : 0;
    std::vector<TreeHop> tree;
    buildBroadcastSchedule(src, tree);
    std::vector<Cycle> head(numCores_, 0);
    head[src] = depart;
    arrivals.assign(numCores_, 0);
    arrivals[src] = depart + (selfArrivalAtTail() ? tail : 0);

    Cycle max_arrival = arrivals[src];
    for (const TreeHop &h : tree) {
        const Cycle leave =
            head[h.parent] + static_cast<Cycle>(h.delayFactor) * flits;
        if (native) {
            head[h.child] = traverseLink(h.link, leave, flits);
            arrivals[h.child] = head[h.child] + tail;
            stats_.flitHops += flits;
            energy_.addLink(flits);
            energy_.addRouter(flits);
        } else {
            arrivals[h.child] =
                referenceUnicast(h.parent, h.child, flits, leave);
            head[h.child] = arrivals[h.child] - tail;
        }
        max_arrival = std::max(max_arrival, arrivals[h.child]);
    }
    return max_arrival;
}

void
NetworkModel::rollLinkFault(std::uint32_t link, Cycle t,
                            std::uint32_t flits)
{
    const LinkFault f = fault_->rollLink(link, t, flits);
    if (f == LinkFault::None || faultPending_)
        return; // first fault of the route wins
    faultPending_ = true;
    faultDrop_ = f == LinkFault::Drop;
}

void
NetworkModel::reset()
{
    std::fill(links_.begin(), links_.end(), LinkState{});
    std::fill(linkFlits_.begin(), linkFlits_.end(), 0);
    stats_ = NetworkStats{};
}

void
NetworkModel::restoreFrom(const NetworkModel &o)
{
    if (o.links_.size() != links_.size() || o.numCores_ != numCores_)
        panic("NetworkModel::restoreFrom: %s and %s differ in shape",
              name(), o.name());
    links_ = o.links_;
    linkFlits_ = o.linkFlits_;
    stats_ = o.stats_;
    faultPending_ = o.faultPending_;
    faultDrop_ = o.faultDrop_;
}

std::size_t
NetworkModel::tableFootprintBytes() const
{
    return routes_.size() * sizeof(Route) +
           linkSeq_.size() * sizeof(std::uint32_t) +
           treeOffsets_.size() * sizeof(std::uint32_t) +
           treeHops_.size() * sizeof(TreeHop) +
           headScratch_.size() * sizeof(Cycle);
}

} // namespace lacc
