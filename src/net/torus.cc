#include "net/torus.hh"

namespace lacc {

TorusNetwork::TorusNetwork(const SystemConfig &cfg, EnergyModel &energy)
    : NetworkModel(cfg, energy, cfg.numCores * 4),
      width_(cfg.meshWidth), height_(cfg.meshHeight())
{
    finalizeTables();
}

void
TorusNetwork::buildRoute(CoreId src, CoreId dst,
                         std::vector<std::uint32_t> &out) const
{
    // X ring first, shorter way around (ties go East), then Y ring
    // (ties go South).
    std::uint32_t x = xOf(src);
    const std::uint32_t dx = xOf(dst);
    const std::uint32_t sy = yOf(src);
    {
        const std::uint32_t fwd = fwdDist(x, dx, width_);
        const bool east = fwd <= width_ - fwd;
        while (x != dx) {
            out.push_back(linkId(node(x, sy), east ? East : West));
            x = east ? (x + 1) % width_ : (x + width_ - 1) % width_;
        }
    }
    {
        std::uint32_t y = sy;
        const std::uint32_t dy = yOf(dst);
        const std::uint32_t fwd = fwdDist(y, dy, height_);
        const bool south = fwd <= height_ - fwd;
        while (y != dy) {
            out.push_back(linkId(node(x, y), south ? South : North));
            y = south ? (y + 1) % height_ : (y + height_ - 1) % height_;
        }
    }
}

void
TorusNetwork::buildBroadcastSchedule(CoreId src,
                                     std::vector<TreeHop> &out) const
{
    // X-then-Y tree over the rings: East covers width/2 row nodes,
    // West the rest; then every column (x ascending) expands South
    // (height/2 nodes) then North. Every tree link is occupied once:
    // (W-1) + W*(H-1) = N-1 links, like the mesh tree but with half
    // the diameter.
    const std::uint32_t sx = xOf(src);
    const std::uint32_t sy = yOf(src);

    const std::uint32_t east_cnt = width_ / 2;
    for (std::uint32_t i = 0, x = sx; i < east_cnt; ++i) {
        const std::uint32_t nxt = (x + 1) % width_;
        out.push_back({linkId(node(x, sy), East), node(x, sy),
                       node(nxt, sy), 0});
        x = nxt;
    }
    for (std::uint32_t i = 0, x = sx; i + 1 + east_cnt < width_; ++i) {
        const std::uint32_t nxt = (x + width_ - 1) % width_;
        out.push_back({linkId(node(x, sy), West), node(x, sy),
                       node(nxt, sy), 0});
        x = nxt;
    }

    const std::uint32_t south_cnt = height_ / 2;
    for (std::uint32_t x = 0; x < width_; ++x) {
        for (std::uint32_t i = 0, y = sy; i < south_cnt; ++i) {
            const std::uint32_t nxt = (y + 1) % height_;
            out.push_back({linkId(node(x, y), South), node(x, y),
                           node(x, nxt), 0});
            y = nxt;
        }
        for (std::uint32_t i = 0, y = sy; i + 1 + south_cnt < height_;
             ++i) {
            const std::uint32_t nxt = (y + height_ - 1) % height_;
            out.push_back({linkId(node(x, y), North), node(x, y),
                           node(x, nxt), 0});
            y = nxt;
        }
    }
}

} // namespace lacc
