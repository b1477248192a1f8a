#include "net/mesh.hh"

namespace lacc {

MeshNetwork::MeshNetwork(const SystemConfig &cfg, EnergyModel &energy)
    : NetworkModel(cfg, energy, cfg.numCores * 4),
      width_(cfg.meshWidth), height_(cfg.meshHeight())
{
    finalizeTables();
}

void
MeshNetwork::buildRoute(CoreId src, CoreId dst,
                        std::vector<std::uint32_t> &out) const
{
    // XY dimension order: the whole X leg along the source row, then
    // the Y leg along the destination column.
    std::uint32_t x = xOf(src);
    std::uint32_t y = yOf(src);
    const std::uint32_t dx = xOf(dst);
    const std::uint32_t dy = yOf(dst);
    for (; x < dx; ++x)
        out.push_back(linkId(node(x, y), East));
    for (; x > dx; --x)
        out.push_back(linkId(node(x, y), West));
    for (; y < dy; ++y)
        out.push_back(linkId(node(x, y), South));
    for (; y > dy; --y)
        out.push_back(linkId(node(x, y), North));
}

void
MeshNetwork::buildBroadcastSchedule(CoreId src,
                                    std::vector<TreeHop> &out) const
{
    // X-then-Y tree: expand east then west along the source row, then
    // every column (x ascending) south then north. Every tree link is
    // occupied once: (W-1) + W*(H-1) = N-1 links.
    const std::uint32_t sx = xOf(src);
    const std::uint32_t sy = yOf(src);
    for (std::uint32_t x = sx + 1; x < width_; ++x)
        out.push_back({linkId(node(x - 1, sy), East), node(x - 1, sy),
                       node(x, sy), 0});
    for (std::uint32_t x = sx; x > 0; --x)
        out.push_back({linkId(node(x, sy), West), node(x, sy),
                       node(x - 1, sy), 0});
    for (std::uint32_t x = 0; x < width_; ++x) {
        for (std::uint32_t y = sy + 1; y < height_; ++y)
            out.push_back({linkId(node(x, y - 1), South), node(x, y - 1),
                           node(x, y), 0});
        for (std::uint32_t y = sy; y > 0; --y)
            out.push_back({linkId(node(x, y), North), node(x, y),
                           node(x, y - 1), 0});
    }
}

} // namespace lacc
