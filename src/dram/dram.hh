/**
 * @file
 * Off-chip DRAM model: fixed access latency plus per-controller
 * bandwidth queueing (Table 1: 8 controllers, 5 GB/s each, 100 ns).
 *
 * Lines are interleaved across controllers; each controller serializes
 * line transfers at its bandwidth (64 B / 5 GBps = 12.8 ns ~ 13 cycles
 * at 1 GHz). Queueing delay due to finite off-chip bandwidth is
 * reported so it can be attributed to the L2Cache-OffChip completion
 * time component (§4.4).
 *
 * Functional storage is a line-granular slab arena: a mix-hashed map
 * from line address to a slot index into one contiguous data pool, so
 * a write-back costs at most one amortized pool grow instead of a heap
 * vector per touched line, and repeated fetch/write-back of the same
 * line is allocation-free.
 */

#ifndef LACC_DRAM_DRAM_HH
#define LACC_DRAM_DRAM_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace lacc {

/** DRAM + memory-controller timing and functional storage. */
class DramModel
{
  public:
    explicit DramModel(const SystemConfig &cfg);

    /** Tile hosting the controller that owns @p line. */
    CoreId controllerTile(LineAddr line) const;

    /**
     * Perform a line fetch or write-back at the controller.
     *
     * @param line  line address
     * @param start cycle the request reaches the controller tile
     * @return cycle the data transfer completes at the controller
     */
    Cycle access(LineAddr line, Cycle start);

    /**
     * Functional read of a line (zero-filled when untouched) into
     * @p out, which must hold wordsPerLine() words.
     */
    void readLine(LineAddr line, std::uint64_t *out) const;

    /** Functional read of word @p word of a line (0 when untouched). */
    std::uint64_t readWord(LineAddr line, std::uint32_t word) const;

    /** Functional write of a line (wordsPerLine() words from @p in). */
    void writeLine(LineAddr line, const std::uint64_t *in);

    /** 64-bit words stored per line (from the construction config). */
    std::uint32_t wordsPerLine() const { return wordsPerLine_; }

    /** Lines currently backed by a pool slot (test helper). */
    std::size_t storedLines() const { return slot_.size(); }

    /** Total bandwidth-queueing cycles across controllers. */
    std::uint64_t queueingCycles() const { return queueingCycles_; }

    /** Total accesses (fetches + write-backs). */
    std::uint64_t accesses() const { return accesses_; }

    /**
     * Become an exact copy of @p o's mutable state — controller
     * queues, counters, stored lines — for a model of the same config
     * (Multicore::restoreFrom). An empty slab on both sides is
     * skipped, so restoring a system that never wrote DRAM back is
     * free.
     */
    void restoreFrom(const DramModel &o);

    /** Tiles hosting controllers, in controller order (test helper). */
    const std::vector<CoreId> &controllerTiles() const
    {
        return tiles_;
    }

  private:
    std::uint32_t numControllers_;
    Cycle latency_;
    Cycle serialization_; //!< cycles one line occupies a controller
    std::uint32_t wordsPerLine_;

    std::vector<CoreId> tiles_;
    std::vector<Cycle> freeAt_;
    std::uint64_t queueingCycles_ = 0;
    std::uint64_t accesses_ = 0;

    // Slab arena: line -> slot index into the contiguous pool.
    FlatAddrMap<std::uint32_t> slot_;
    std::vector<std::uint64_t> pool_; //!< slot i at [i*wpl, (i+1)*wpl)
};

} // namespace lacc

#endif // LACC_DRAM_DRAM_HH
