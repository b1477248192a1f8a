/**
 * @file
 * Directory sharer tracking: ACKwise_p limited directory and a
 * full-map bit-vector baseline (§3.1).
 *
 * ACKwise_p keeps p hardware pointers. While the sharer count is <= p
 * it behaves like a full-map directory (exact identities). When the
 * count exceeds p it stops tracking identities and only maintains the
 * number of sharers; exclusive requests must then broadcast the
 * invalidation, but acknowledgements are expected only from the actual
 * sharers (the tracked count). Identities cannot be recovered until
 * the line is fully invalidated.
 *
 * Storage is allocation-free and split in two. SharerState, embedded
 * in every directory entry (protocol/dir_entry.hh), holds the count,
 * the overflow bit and the ACKwise pointers inline. A full-map list's
 * bit vector is sized from the core count and lives in the L2 slot's
 * auxiliary block; SharerList binds the two into the protocol's view.
 */

#ifndef LACC_PROTOCOL_SHARER_LIST_HH
#define LACC_PROTOCOL_SHARER_LIST_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "sim/types.hh"

namespace lacc {

/** The inline part of one directory entry's sharer list. */
struct SharerState
{
    /** A fresh ACKwise list with @p pointers (<= kMaxAckwisePointers). */
    static SharerState ackwise(std::uint32_t pointers);

    /** A fresh full-map list over @p num_cores cores. */
    static SharerState fullMap(std::uint32_t num_cores);

    /** 64-bit words of full-map bits a list over @p num_cores needs. */
    static std::uint32_t
    fullMapWords(std::uint32_t num_cores)
    {
        return (num_cores + 63) / 64;
    }

    std::uint16_t count = 0;
    std::uint16_t capacity = 0; //!< ACKwise p, or full-map bit words
    bool isFullMap = false;
    bool overflowed = false;
    std::uint8_t numPointers = 0;
    CoreId pointers[kMaxAckwisePointers] = {}; //!< sorted identities
};

/**
 * A directory entry's sharer list: its SharerState bound to its
 * full-map bit words (unused, and may be null, under ACKwise). A
 * cheap handle like L2Cache::Entry; see protocol/dir_entry.hh
 * sharersOf().
 */
class SharerList
{
  public:
    SharerList(SharerState &s, std::uint64_t *bits) : s_(&s), bits_(bits)
    {}

    /** Add a sharer (idempotent). */
    void add(CoreId core);

    /**
     * Remove a sharer (eviction/invalidation ack). In ACKwise overflow
     * mode an untracked core only decrements the count.
     */
    void remove(CoreId core);

    /** Drop all sharers (after a full invalidation). */
    void clear();

    /** Number of sharers. */
    std::uint32_t count() const { return s_->count; }

    /**
     * True when identities are no longer tracked and an exclusive
     * request requires a broadcast invalidation. Always false for a
     * full-map list.
     */
    bool overflowed() const { return s_->overflowed; }

    /**
     * True if @p core is known to be a sharer. In ACKwise overflow
     * mode only the pointer-resident subset is known; this returns
     * false for untracked sharers (callers must consult overflowed()).
     */
    bool contains(CoreId core) const;

    /** Apply @p fn to each tracked sharer identity, id order. */
    template <typename F>
    void
    forEachTracked(F &&fn) const
    {
        if (s_->isFullMap) {
            for (std::uint32_t w = 0; w < s_->capacity; ++w) {
                std::uint64_t word = bits_[w];
                while (word) {
                    const int b = __builtin_ctzll(word);
                    fn(static_cast<CoreId>(w * 64 + b));
                    word &= word - 1;
                }
            }
        } else {
            for (std::uint32_t i = 0; i < s_->numPointers; ++i)
                fn(s_->pointers[i]);
        }
    }

    /** Tracked identities as a vector (test helper). */
    std::vector<CoreId> tracked() const;

    /** True if organized as full-map. */
    bool isFullMap() const { return s_->isFullMap; }

  private:
    SharerState *s_;
    std::uint64_t *bits_; //!< s_->capacity full-map words
};

} // namespace lacc

#endif // LACC_PROTOCOL_SHARER_LIST_HH
