/**
 * @file
 * HolderVec: the grant-ordered core-id set behind L2Meta::holders.
 *
 * A directory entry's holder set is typically a handful of cores
 * (<= the sharing degree), so up to kInlineCap ids live inline and
 * only a genuinely wide set spills to one heap buffer, which the
 * vector keeps for reuse after it shrinks or is cleared — steady-state
 * L2 slot churn performs no heap traffic.
 *
 * Order is architecturally *visible*: invalidation fan-out unicasts
 * holders in grant order, and with link contention the fan-out order
 * shifts individual ack arrival times. Inserts append and erases
 * shift, never reorder; sorting holders would change modeled timing
 * (and break the golden digests).
 */

#ifndef LACC_PROTOCOL_CORE_VEC_HH
#define LACC_PROTOCOL_CORE_VEC_HH

#include <algorithm>
#include <cstdint>
#include <memory>

#include "sim/types.hh"

namespace lacc {

/** Grant-ordered small-buffer core-id set; see file header. */
class HolderVec
{
  public:
    /** Ids stored without touching the heap. */
    static constexpr std::uint32_t kInlineCap = 8;

    HolderVec() = default;
    HolderVec(const HolderVec &o) { *this = o; }
    HolderVec &
    operator=(const HolderVec &o)
    {
        if (this != &o) {
            size_ = 0; // nothing of ours to preserve
            reserve(o.size_);
            size_ = o.size_;
            std::copy(o.begin(), o.end(), data());
        }
        return *this;
    }

    std::uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    const CoreId *begin() const { return data(); }
    const CoreId *end() const { return data() + size_; }
    CoreId operator[](std::uint32_t i) const { return data()[i]; }

    /** True if @p c is in the set. */
    bool
    contains(CoreId c) const
    {
        const CoreId *const d = data();
        return std::find(d, d + size_, c) != d + size_;
    }

    /** Append @p c. @return false if it was already present. */
    bool
    insert(CoreId c)
    {
        if (contains(c))
            return false;
        if (size_ < kInlineCap) {
            inline_[size_++] = c;
            return true;
        }
        reserve(size_ + 1);
        if (size_ == kInlineCap)
            std::copy(inline_, inline_ + size_, spill_.get());
        spill_[size_++] = c;
        return true;
    }

    /** Remove @p c, keeping the others' order. @return false if absent. */
    bool
    erase(CoreId c)
    {
        CoreId *const d = data();
        std::uint32_t i = static_cast<std::uint32_t>(
            std::find(d, d + size_, c) - d);
        if (i == size_)
            return false;
        // Short sets: a plain loop beats a memmove call.
        for (; i + 1 < size_; ++i)
            d[i] = d[i + 1];
        if (--size_ == kInlineCap)
            std::copy(d, d + size_, inline_);
        return true;
    }

    /** Drop all ids (the spill buffer is kept for reuse). */
    void clear() { size_ = 0; }

  private:
    /** Ids live inline up to kInlineCap, in the spill buffer beyond. */
    CoreId *data() { return size_ > kInlineCap ? spill_.get() : inline_; }
    const CoreId *
    data() const
    {
        return size_ > kInlineCap ? spill_.get() : inline_;
    }

    /** Make the spill buffer hold @p n ids when n exceeds kInlineCap;
     * preserves the spilled ids (the caller copies inline ones). */
    void
    reserve(std::uint32_t n)
    {
        if (n <= kInlineCap || n <= spillCap_)
            return;
        const std::uint32_t cap = std::max(n, 2 * spillCap_);
        std::unique_ptr<CoreId[]> grown(new CoreId[cap]);
        if (size_ > kInlineCap)
            std::copy(spill_.get(), spill_.get() + size_, grown.get());
        spill_ = std::move(grown);
        spillCap_ = cap;
    }

    CoreId inline_[kInlineCap] = {};
    std::unique_ptr<CoreId[]> spill_; //!< holds *all* ids once spilled
    std::uint32_t size_ = 0;
    std::uint32_t spillCap_ = 0;
};

} // namespace lacc

#endif // LACC_PROTOCOL_CORE_VEC_HH
