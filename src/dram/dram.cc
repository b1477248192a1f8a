#include "dram/dram.hh"

#include <algorithm>
#include <cmath>


namespace lacc {

namespace {

/** Initial bucket reservation of the slab map (grows amortized). */
constexpr std::size_t kInitialSlabLines = 1024;

} // namespace

DramModel::DramModel(const SystemConfig &cfg)
    : numControllers_(cfg.numMemControllers), latency_(cfg.dramLatency),
      wordsPerLine_(cfg.wordsPerLine())
{
    // 64 B line at 5 GB/s and 1 GHz: 64 / 5 = 12.8 -> 13 cycles.
    serialization_ = static_cast<Cycle>(std::ceil(
        static_cast<double>(cfg.lineSize) / cfg.dramBandwidthGBps));
    if (serialization_ == 0)
        serialization_ = 1;

    // Spread controllers evenly over the tile index space.
    tiles_.reserve(numControllers_);
    for (std::uint32_t i = 0; i < numControllers_; ++i)
        tiles_.push_back(
            static_cast<CoreId>(i * cfg.numCores / numControllers_));
    freeAt_.assign(numControllers_, 0);

    slot_.reserve(kInitialSlabLines);
}

CoreId
DramModel::controllerTile(LineAddr line) const
{
    return tiles_[static_cast<std::size_t>(line % numControllers_)];
}

Cycle
DramModel::access(LineAddr line, Cycle start)
{
    const auto ctrl = static_cast<std::size_t>(line % numControllers_);
    ++accesses_;
    Cycle t = start;
    if (freeAt_[ctrl] > t) {
        queueingCycles_ += freeAt_[ctrl] - t;
        t = freeAt_[ctrl];
    }
    freeAt_[ctrl] = t + serialization_;
    return t + latency_ + serialization_;
}

void
DramModel::restoreFrom(const DramModel &o)
{
    freeAt_ = o.freeAt_;
    queueingCycles_ = o.queueingCycles_;
    accesses_ = o.accesses_;
    slot_.assignFrom(o.slot_);
    pool_ = o.pool_;
}

void
DramModel::readLine(LineAddr line, std::uint64_t *out) const
{
    const std::uint32_t *idx = slot_.find(line);
    if (idx == nullptr) {
        std::fill_n(out, wordsPerLine_, std::uint64_t{0});
        return;
    }
    std::copy_n(pool_.data() +
                    static_cast<std::size_t>(*idx) * wordsPerLine_,
                wordsPerLine_, out);
}

std::uint64_t
DramModel::readWord(LineAddr line, std::uint32_t word) const
{
    const std::uint32_t *idx = slot_.find(line);
    if (idx == nullptr)
        return 0;
    return pool_[static_cast<std::size_t>(*idx) * wordsPerLine_ + word];
}

void
DramModel::writeLine(LineAddr line, const std::uint64_t *in)
{
    std::uint32_t idx;
    if (const std::uint32_t *found = slot_.find(line)) {
        idx = *found;
    } else {
        idx = static_cast<std::uint32_t>(slot_.size());
        slot_[line] = idx;
        pool_.resize(pool_.size() + wordsPerLine_);
    }
    std::copy_n(in, wordsPerLine_,
                pool_.data() +
                    static_cast<std::size_t>(idx) * wordsPerLine_);
}

} // namespace lacc
