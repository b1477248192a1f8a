/**
 * @file
 * Per-core miss-type classification (Section 4.4).
 *
 * The tracker remembers, per (core, line), why the line is not in the
 * core's L1: never touched (cold), evicted (capacity), invalidated or
 * downgraded by another core (sharing), or last serviced as a remote
 * word access (word). Upgrade misses are detected structurally (the
 * line is present read-only when an exclusive request is made) and do
 * not need tracker state.
 */

#ifndef LACC_CACHE_MISS_STATUS_HH
#define LACC_CACHE_MISS_STATUS_HH

#include <cstdint>

#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace lacc {

/** Tracks the last memory-system interaction per line for one core. */
class MissStatusTracker
{
  public:
    MissStatusTracker() = default;

    /**
     * @param expected_lines pre-sizes the per-line event map (a small
     *        multiple of the core's L1 capacity bounds the lines a
     *        core loses and re-misses in steady state) so the hot
     *        record/classify path does not rehash repeatedly.
     */
    explicit MissStatusTracker(std::size_t expected_lines)
    {
        last_.reserve(expected_lines);
    }

    /** Last interaction of this core with a line it does not hold. */
    enum class LastEvent : std::uint8_t {
        None,           //!< never touched: next miss is Cold
        Evicted,        //!< capacity/conflict victim: next miss Capacity
        Invalidated,    //!< killed by another core: next miss Sharing
        RemoteAccessed, //!< serviced as word access: next miss Word
    };

    /**
     * Classify a miss to @p line.
     *
     * @param line             the missing line
     * @param is_write         exclusive request?
     * @param present_read_only line is in the L1 in state S (upgrade)
     * @return the paper's miss type for this miss
     */
    MissType
    classify(LineAddr line, bool is_write, bool present_read_only) const
    {
        if (is_write && present_read_only)
            return MissType::Upgrade;
        const LastEvent *ev = last_.find(line);
        if (ev == nullptr)
            return MissType::Cold;
        switch (*ev) {
          case LastEvent::Evicted: return MissType::Capacity;
          case LastEvent::Invalidated: return MissType::Sharing;
          case LastEvent::RemoteAccessed: return MissType::Word;
          default: return MissType::Cold;
        }
    }

    /** Record that the line was evicted from this core's L1. */
    void onEviction(LineAddr line) { last_[line] = LastEvent::Evicted; }

    /** Record that the line was invalidated (or downgraded) remotely. */
    void
    onInvalidation(LineAddr line)
    {
        last_[line] = LastEvent::Invalidated;
    }

    /** Record that the line was serviced as a remote word access. */
    void
    onRemoteAccess(LineAddr line)
    {
        last_[line] = LastEvent::RemoteAccessed;
    }

    /** Number of tracked lines (test helper). */
    std::size_t trackedLines() const { return last_.size(); }

    /** Become an exact copy of @p o (Multicore::restoreFrom). */
    void
    restoreFrom(const MissStatusTracker &o)
    {
        last_.assignFrom(o.last_);
    }

  private:
    // Flat open-addressing map: classify/record run on every L1 miss
    // and eviction, so per-node allocation and bucket-pointer chasing
    // are off the table (see sim/flat_map.hh).
    FlatAddrMap<LastEvent> last_;
};

} // namespace lacc

#endif // LACC_CACHE_MISS_STATUS_HH
