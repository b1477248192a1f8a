#include "net/ring.hh"

namespace lacc {

RingNetwork::RingNetwork(const SystemConfig &cfg, EnergyModel &energy)
    : NetworkModel(cfg, energy, cfg.numCores * 2)
{
    finalizeTables();
}

void
RingNetwork::buildRoute(CoreId src, CoreId dst,
                        std::vector<std::uint32_t> &out) const
{
    // Shorter arc; ties go clockwise.
    const std::uint32_t cw = cwDist(src, dst);
    const bool clockwise = cw <= numCores_ - cw;
    CoreId at = src;
    while (at != dst) {
        out.push_back(linkId(at, clockwise ? Clockwise : CounterCw));
        at = static_cast<CoreId>(clockwise
                                     ? (at + 1) % numCores_
                                     : (at + numCores_ - 1) % numCores_);
    }
}

void
RingNetwork::buildBroadcastSchedule(CoreId src,
                                    std::vector<TreeHop> &out) const
{
    // One injection expands both ways around the ring: the clockwise
    // arc covers N/2 nodes, the counter-clockwise arc the rest (N-1
    // arc links in all).
    const std::uint32_t cw_cnt = numCores_ / 2;
    CoreId at = src;
    for (std::uint32_t i = 0; i < cw_cnt; ++i) {
        const CoreId nxt = static_cast<CoreId>((at + 1) % numCores_);
        out.push_back({linkId(at, Clockwise), at, nxt, 0});
        at = nxt;
    }
    at = src;
    for (std::uint32_t i = 0; i + 1 + cw_cnt < numCores_; ++i) {
        const CoreId nxt =
            static_cast<CoreId>((at + numCores_ - 1) % numCores_);
        out.push_back({linkId(at, CounterCw), at, nxt, 0});
        at = nxt;
    }
}

} // namespace lacc
