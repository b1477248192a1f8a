#include "net/network.hh"

#include <algorithm>

#include "fault/injector.hh"
#include "sim/log.hh"
#include "sim/named_registry.hh"

namespace lacc {

/**
 * One fabric: how its tiles are wired and how it broadcasts. Adding a
 * fabric means adding a row here (plus its NetworkKind); lookup and
 * diagnostics come from the shared named-registry helpers.
 */
struct NetworkEntry
{
    const char *name;
    NetworkKind kind;
    /**
     * Directed links per tile. 4: a meshWidth x meshHeight grid with
     * East, West, South and North links. 2: a numCores x 1 grid, one
     * row with East and West links only. 1: not a grid but a
     * crossbar, whose one link per tile is its output port.
     */
    std::uint32_t linksPerTile;
    /** Whether each grid dimension wraps around. */
    bool wraps;
    /**
     * Whether one injection reaches every tile (router replication);
     * otherwise a broadcast is one serialized unicast per destination.
     */
    bool nativeBroadcast;
    /**
     * Whether the source's own broadcast copy arrives with the tail
     * flit (depart + flits - 1) instead of at depart: the X-then-Y
     * trees re-deliver through the source router after serializing
     * the payload, while the ring's arcs and the crossbar's ports hand
     * the source its copy at injection time.
     */
    bool srcHearsTail;
};

namespace {

const NetworkEntry kNetworks[] = {
    {"mesh", NetworkKind::Mesh, 4, false, true, true},
    {"torus", NetworkKind::Torus, 4, true, true, true},
    {"ring", NetworkKind::Ring, 2, true, true, false},
    {"xbar", NetworkKind::Crossbar, 1, false, false, false},
};

/** Grid link directions: tile t's links are t * linksPerTile + Dir. */
enum Dir : std::uint32_t { East = 0, West = 1, South = 2, North = 3 };

/**
 * Whether the way from @p a to @p b along a grid dimension of @p n
 * tiles goes up (East/South): the shorter way round when the
 * dimension wraps, ties going up.
 */
bool
goesUp(std::uint32_t a, std::uint32_t b, std::uint32_t n, bool wraps)
{
    if (!wraps)
        return b > a;
    const std::uint32_t up = b >= a ? b - a : b + n - a;
    return up <= n - up;
}

/** The coordinate one step up or down from @p a, modulo @p n. */
std::uint32_t
step(std::uint32_t a, bool up, std::uint32_t n)
{
    if (up)
        return a + 1 == n ? 0 : a + 1;
    return a == 0 ? n - 1 : a - 1;
}

} // namespace

NetworkModel::NetworkModel(const SystemConfig &cfg, EnergyModel &energy)
    : fabric_(registry::entryForKind(kNetworks, cfg.networkKind,
                                     "network")),
      numCores_(cfg.numCores),
      width_(fabric_.linksPerTile == 2 ? cfg.numCores : cfg.meshWidth),
      height_(cfg.numCores / width_), hopLatency_(cfg.hopLatency),
      energy_(energy), links_(cfg.numCores * fabric_.linksPerTile),
      linkFlits_(links_.size(), 0)
{
    if (hopLatency_ < 2)
        fatal("hopLatency must be >= 2 (1 router + 1 link cycle)");

    // ---- Route table: one link-id span per ordered (src, dst) pair.
    routes_.assign(static_cast<std::size_t>(numCores_) * numCores_,
                   Route{});
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
    if (fabric_.nativeBroadcast) {
        bmeta_.routerEnergyFactor = numCores_;
        bmeta_.injectedFactor = 1;
        bmeta_.extraUnicasts = 0;
    } else {
        bmeta_.routerEnergyFactor = entries;
        bmeta_.injectedFactor = entries;
        bmeta_.extraUnicasts = entries;
    }

    headScratch_.assign(numCores_, 0);
}

const char *
NetworkModel::name() const
{
    return fabric_.name;
}

bool
NetworkModel::hasNativeBroadcast() const
{
    return fabric_.nativeBroadcast;
}

void
NetworkModel::buildRoute(CoreId src, CoreId dst,
                         std::vector<std::uint32_t> &out) const
{
    if (fabric_.linksPerTile == 1) {
        // Crossbar: one switch traversal; the destination's output
        // port is the contended link.
        out.push_back(dst);
        return;
    }
    // Dimension order: the whole X leg along the source row, then the
    // Y leg along the destination column.
    const std::uint32_t lpt = fabric_.linksPerTile;
    std::uint32_t x = src % width_;
    std::uint32_t y = src / width_;
    const std::uint32_t dx = dst % width_;
    const std::uint32_t dy = dst / width_;
    const bool east = goesUp(x, dx, width_, fabric_.wraps);
    for (; x != dx; x = step(x, east, width_))
        out.push_back((y * width_ + x) * lpt + (east ? East : West));
    const bool south = goesUp(y, dy, height_, fabric_.wraps);
    for (; y != dy; y = step(y, south, height_))
        out.push_back((y * width_ + x) * lpt + (south ? South : North));
}

void
NetworkModel::buildBroadcastSchedule(CoreId src,
                                     std::vector<TreeHop> &out) const
{
    if (fabric_.linksPerTile == 1) {
        // Crossbar: one serialized unicast per destination in CoreId
        // order; every hop hangs off the source, the i-th delayed by
        // i*flits injection cycles.
        std::uint32_t i = 0;
        for (std::uint32_t dst = 0; dst < numCores_; ++dst)
            if (dst != src)
                out.push_back({dst, src, static_cast<CoreId>(dst), i++});
        return;
    }
    // X-then-Y tree: the source row expands East then West, then every
    // column, x ascending, South then North. An open dimension expands
    // to its edges; a wrapping one sends n/2 tiles up (East/South) and
    // the rest down. Every tree link is occupied once:
    // (W-1) + W*(H-1) = N-1 links.
    const auto chain = [&](std::uint32_t x, std::uint32_t y, Dir d,
                           std::uint32_t count) {
        for (; count > 0; --count) {
            const auto from = static_cast<CoreId>(y * width_ + x);
            if (d == East || d == West)
                x = step(x, d == East, width_);
            else
                y = step(y, d == South, height_);
            out.push_back({from * fabric_.linksPerTile + d, from,
                           static_cast<CoreId>(y * width_ + x), 0});
        }
    };
    const std::uint32_t sx = src % width_;
    const std::uint32_t sy = src / width_;
    const std::uint32_t east = fabric_.wraps ? width_ / 2 : width_ - 1 - sx;
    chain(sx, sy, East, east);
    chain(sx, sy, West, width_ - 1 - east);
    const std::uint32_t south =
        fabric_.wraps ? height_ / 2 : height_ - 1 - sy;
    for (std::uint32_t x = 0; x < width_; ++x) {
        chain(x, sy, South, south);
        chain(x, sy, North, height_ - 1 - south);
    }
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
    arrivals[src] = depart + (fabric_.srcHearsTail ? tail : 0);
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
    const bool native = fabric_.nativeBroadcast;
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
    arrivals[src] = depart + (fabric_.srcHearsTail ? tail : 0);

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

const std::vector<std::string> &
networkNames()
{
    static const std::vector<std::string> names =
        registry::entryNames(kNetworks);
    return names;
}

const char *
networkNameFor(const SystemConfig &cfg)
{
    return registry::entryForKind(kNetworks, cfg.networkKind, "network")
        .name;
}

void
applyNetworkName(SystemConfig &cfg, const std::string &name)
{
    cfg.networkKind =
        registry::entryForNameOrFatal(kNetworks, "network", name).kind;
}

} // namespace lacc
