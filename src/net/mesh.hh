/**
 * @file
 * Electrical 2-D mesh interconnect with XY routing and broadcast
 * support (Table 1, §3.1) — the paper's fabric, and the default
 * NetworkModel (net/network.hh holds the shared timing/contention
 * model and the table-driven hot path).
 *
 * Broadcast: each router selectively replicates a broadcast message on
 * its output links so all cores are reached with a single injection
 * (§3.1). The broadcast spans the mesh as an X-then-Y tree rooted at
 * the source; every tree link is occupied once.
 */

#ifndef LACC_NET_MESH_HH
#define LACC_NET_MESH_HH

#include "net/network.hh"

namespace lacc {

/** 2-D mesh NoC; shared by all tiles of a Multicore. */
class MeshNetwork : public NetworkModel
{
  public:
    /**
     * @param cfg    system configuration (mesh size, flit widths ...)
     * @param energy whole-system energy accumulator
     */
    MeshNetwork(const SystemConfig &cfg, EnergyModel &energy);

    const char *name() const override { return "mesh"; }

    /** Mesh X coordinate (column) of a tile. */
    std::uint32_t xOf(CoreId tile) const { return tile % width_; }

    /** Mesh Y coordinate (row) of a tile. */
    std::uint32_t yOf(CoreId tile) const { return tile / width_; }

    /** Router replication delivers a broadcast in one injection. */
    bool hasNativeBroadcast() const override { return true; }

    /** The X-then-Y tree re-delivers to the source with the tail. */
    bool selfArrivalAtTail() const override { return true; }

  protected:
    void buildRoute(CoreId src, CoreId dst,
                    std::vector<std::uint32_t> &out) const override;

    void buildBroadcastSchedule(CoreId src,
                                std::vector<TreeHop> &out)
        const override;

  private:
    /** Directed link ids: 4 per node (E, W, S, N). */
    enum Dir : std::uint32_t { East = 0, West = 1, South = 2, North = 3 };

    std::uint32_t linkId(CoreId node, Dir d) const
    {
        return node * 4 + d;
    }

    CoreId node(std::uint32_t x, std::uint32_t y) const
    {
        return static_cast<CoreId>(y * width_ + x);
    }

    std::uint32_t width_;
    std::uint32_t height_;
};

} // namespace lacc

#endif // LACC_NET_MESH_HH
