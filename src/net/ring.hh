/**
 * @file
 * 1-D bidirectional ring interconnect: every tile has one clockwise
 * and one counter-clockwise link. Cheap to build (2 ports per router)
 * but the diameter grows linearly with the core count — the
 * high-hop-cost end of the topology-sensitivity axis. Broadcasts are
 * native: one injection expands both ways around the ring, occupying
 * every ring link of the two arcs once (N-1 links total).
 */

#ifndef LACC_NET_RING_HH
#define LACC_NET_RING_HH

#include "net/network.hh"

namespace lacc {

/** 1-D bidirectional ring NoC; see file header. */
class RingNetwork : public NetworkModel
{
  public:
    RingNetwork(const SystemConfig &cfg, EnergyModel &energy);

    const char *name() const override { return "ring"; }

    bool hasNativeBroadcast() const override { return true; }

  protected:
    void buildRoute(CoreId src, CoreId dst,
                    std::vector<std::uint32_t> &out) const override;

    void buildBroadcastSchedule(CoreId src,
                                std::vector<TreeHop> &out)
        const override;

  private:
    /** Directed link ids: 2 per node (CW = +1, CCW = -1). */
    enum Dir : std::uint32_t { Clockwise = 0, CounterCw = 1 };

    std::uint32_t linkId(CoreId node, Dir d) const
    {
        return node * 2 + d;
    }

    /** Clockwise distance from a to b. */
    std::uint32_t
    cwDist(CoreId a, CoreId b) const
    {
        return b >= a ? b - a : b + numCores_ - a;
    }
};

} // namespace lacc

#endif // LACC_NET_RING_HH
