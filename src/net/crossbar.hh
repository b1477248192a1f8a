/**
 * @file
 * Full crossbar interconnect: every tile pair is one switch traversal
 * apart, so unicast latency is uniform (hopLatency + serialization)
 * and contention is modeled on the per-destination output ports.
 *
 * There is NO native broadcast: a crossbar switch has no replication
 * tree, so a broadcast is emulated as one unicast per destination,
 * serialized at the source injection port (one flit per cycle). This
 * makes ACKwise_p pointer overflow genuinely expensive — (N-1) x
 * flits injected instead of one message — which is exactly the
 * topology-sensitivity question the network experiment measures. In
 * schedule form (net/network.hh) every hop hangs off the source with
 * delayFactor i, reproducing the i*flits injection serialization.
 */

#ifndef LACC_NET_CROSSBAR_HH
#define LACC_NET_CROSSBAR_HH

#include "net/network.hh"

namespace lacc {

/** Uniform-latency crossbar NoC; see file header. */
class CrossbarNetwork : public NetworkModel
{
  public:
    CrossbarNetwork(const SystemConfig &cfg, EnergyModel &energy);

    const char *name() const override { return "xbar"; }

    bool hasNativeBroadcast() const override { return false; }

  protected:
    void buildRoute(CoreId src, CoreId dst,
                    std::vector<std::uint32_t> &out) const override;

    void buildBroadcastSchedule(CoreId src,
                                std::vector<TreeHop> &out)
        const override;
};

} // namespace lacc

#endif // LACC_NET_CROSSBAR_HH
