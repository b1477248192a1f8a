/**
 * @file
 * The event loop's queue (Multicore::run): which core steps next. The
 * simulator's interleaving is defined by popping the minimum
 * (time, core) key, one op per pop.
 */

#ifndef LACC_SYSTEM_EVENT_QUEUE_HH
#define LACC_SYSTEM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace lacc {

/**
 * A complete binary min-tree with one leaf per core, sized at
 * construction. A leaf holds its core's packed key (t << 16) | core,
 * or all ones while the core is idle (blocked, finished, or not yet
 * scheduled); every inner node holds the minimum of its children, so
 * the root is the next event and keys order exactly like (time, core)
 * pairs.
 *
 * A core is queued at most once. pop() hands out the root's event but
 * leaves the core's leaf in place for the duration of its step; the
 * leaf is then rewritten exactly once — by the core's own schedule()
 * during the step, or to idle by endStep() if it blocked or finished.
 * Each rewrite updates one leaf and its log2(N) ancestors with
 * branch-free mins.
 */
class EventQueue
{
  public:
    explicit EventQueue(std::uint32_t num_cores);

    /** True when no core is queued. */
    bool empty() const { return tree_[1] == kIdle; }

    /**
     * Core @p c becomes runnable at @p t. panic()s on t >= 2^48 and
     * on a core that is already queued (other than the stepping core's
     * one reschedule).
     */
    void schedule(CoreId c, Cycle t);

    /** Begin the step of the next event; requires !empty(). */
    std::pair<Cycle, CoreId>
    pop()
    {
        const std::uint64_t key = tree_[1];
        stepping_ = static_cast<CoreId>(key & kCoreMask);
        rescheduled_ = false;
        return {key >> kCoreBits, stepping_};
    }

    /** End the popped core's step: idle its leaf unless rescheduled. */
    void
    endStep()
    {
        if (!rescheduled_)
            setLeaf(stepping_, kIdle);
        stepping_ = kInvalidCore;
    }

  private:
    /** Core-id bits of a key; event times must stay below 2^48. */
    static constexpr unsigned kCoreBits = 16;
    static constexpr std::uint64_t kIdle = ~std::uint64_t{0};
    static constexpr std::uint64_t kCoreMask =
        (std::uint64_t{1} << kCoreBits) - 1;

    /** Each ancestor becomes min(the updated child, its sibling). */
    void
    setLeaf(CoreId c, std::uint64_t key)
    {
        std::size_t i = leaves_ + c;
        tree_[i] = key;
        for (; i > 1; i >>= 1) {
            key = std::min(key, tree_[i ^ 1]);
            tree_[i >> 1] = key;
        }
    }

    std::size_t leaves_;             //!< power of two >= core count
    std::vector<std::uint64_t> tree_; //!< [1] root, [leaves_ + c] leaf
    CoreId stepping_ = kInvalidCore; //!< popped core, until endStep()
    bool rescheduled_ = false;       //!< stepping_ already rescheduled
};

} // namespace lacc

#endif // LACC_SYSTEM_EVENT_QUEUE_HH
