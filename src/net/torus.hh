/**
 * @file
 * 2-D torus interconnect: the mesh with wraparound links in both
 * dimensions. Dimension-ordered (X-then-Y) routing picks the shorter
 * direction around each ring, halving the average hop distance of the
 * mesh at equal bisection cost; broadcasts span an X-then-Y tree over
 * the row/column rings with a single injection (native broadcast,
 * like the mesh).
 */

#ifndef LACC_NET_TORUS_HH
#define LACC_NET_TORUS_HH

#include "net/network.hh"

namespace lacc {

/** 2-D torus NoC (wraparound XY); see file header. */
class TorusNetwork : public NetworkModel
{
  public:
    TorusNetwork(const SystemConfig &cfg, EnergyModel &energy);

    const char *name() const override { return "torus"; }

    /** Torus X coordinate (column) of a tile. */
    std::uint32_t xOf(CoreId tile) const { return tile % width_; }

    /** Torus Y coordinate (row) of a tile. */
    std::uint32_t yOf(CoreId tile) const { return tile / width_; }

    bool hasNativeBroadcast() const override { return true; }

    /** The X-then-Y ring tree re-delivers to the source with the tail. */
    bool selfArrivalAtTail() const override { return true; }

  protected:
    void buildRoute(CoreId src, CoreId dst,
                    std::vector<std::uint32_t> &out) const override;

    void buildBroadcastSchedule(CoreId src,
                                std::vector<TreeHop> &out)
        const override;

  private:
    /** Directed link ids: 4 per node (E, W, S, N), wrapping. */
    enum Dir : std::uint32_t { East = 0, West = 1, South = 2, North = 3 };

    std::uint32_t linkId(CoreId node, Dir d) const
    {
        return node * 4 + d;
    }

    /** Ring distance going "up" (East/South) from a to b, modulo n. */
    static std::uint32_t
    fwdDist(std::uint32_t a, std::uint32_t b, std::uint32_t n)
    {
        return b >= a ? b - a : b + n - a;
    }

    CoreId node(std::uint32_t x, std::uint32_t y) const
    {
        return static_cast<CoreId>(y * width_ + x);
    }

    std::uint32_t width_;
    std::uint32_t height_;
};

} // namespace lacc

#endif // LACC_NET_TORUS_HH
