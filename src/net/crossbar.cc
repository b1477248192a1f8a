#include "net/crossbar.hh"

namespace lacc {

CrossbarNetwork::CrossbarNetwork(const SystemConfig &cfg,
                                 EnergyModel &energy)
    // One contention slot per destination: the crossbar's output
    // ports are the only shared resource (the switch itself is
    // non-blocking).
    : NetworkModel(cfg, energy, cfg.numCores)
{
    finalizeTables();
}

void
CrossbarNetwork::buildRoute(CoreId /*src*/, CoreId dst,
                            std::vector<std::uint32_t> &out) const
{
    // One switch traversal; the destination output port is the
    // contended link.
    out.push_back(dst);
}

void
CrossbarNetwork::buildBroadcastSchedule(CoreId src,
                                        std::vector<TreeHop> &out) const
{
    // Serialized unicast per destination in CoreId order: every hop
    // hangs off the source, the i-th delayed by i*flits injection
    // cycles.
    std::uint32_t i = 0;
    for (std::uint32_t dst = 0; dst < numCores_; ++dst) {
        if (dst == src)
            continue;
        out.push_back({dst, src, static_cast<CoreId>(dst), i});
        ++i;
    }
}

} // namespace lacc
