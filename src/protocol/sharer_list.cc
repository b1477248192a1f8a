#include "protocol/sharer_list.hh"

#include <algorithm>

#include "sim/log.hh"

namespace lacc {

SharerState
SharerState::ackwise(std::uint32_t pointers)
{
    if (pointers == 0 || pointers > kMaxAckwisePointers)
        panic("ACKwise with %u pointers (inline capacity %u)", pointers,
              kMaxAckwisePointers);
    SharerState s;
    s.capacity = static_cast<std::uint16_t>(pointers);
    return s;
}

SharerState
SharerState::fullMap(std::uint32_t num_cores)
{
    SharerState s;
    s.isFullMap = true;
    s.capacity = static_cast<std::uint16_t>(fullMapWords(num_cores));
    return s;
}

void
SharerList::add(CoreId core)
{
    SharerState &s = *s_;
    if (s.isFullMap) {
        auto &word = bits_[core / 64];
        const std::uint64_t mask = 1ULL << (core % 64);
        if (word & mask)
            return;
        word |= mask;
        ++s.count;
        return;
    }

    // ACKwise: exact while count <= p.
    if (!s.overflowed) {
        CoreId *const end = s.pointers + s.numPointers;
        CoreId *const pos = std::lower_bound(s.pointers, end, core);
        if (pos != end && *pos == core)
            return; // already tracked
        if (s.numPointers < s.capacity) {
            for (CoreId *p = end; p != pos; --p)
                *p = p[-1];
            *pos = core;
            ++s.numPointers;
            ++s.count;
            return;
        }
        // Pointer overflow: stop tracking identities, count only.
        s.overflowed = true;
        ++s.count;
        return;
    }

    // Overflow mode: identities unknown; conservatively assume the
    // requester is a new sharer (the protocol only calls add() when
    // handing out a copy the core does not already hold).
    ++s.count;
}

void
SharerList::remove(CoreId core)
{
    SharerState &s = *s_;
    if (s.count == 0)
        panic("SharerList::remove on empty list");
    if (s.isFullMap) {
        auto &word = bits_[core / 64];
        const std::uint64_t mask = 1ULL << (core % 64);
        if (!(word & mask))
            panic("full-map remove of non-sharer core %u", core);
        word &= ~mask;
        --s.count;
        return;
    }

    CoreId *const end = s.pointers + s.numPointers;
    CoreId *const pos = std::lower_bound(s.pointers, end, core);
    if (pos != end && *pos == core) {
        for (CoreId *p = pos; p + 1 != end; ++p)
            *p = p[1];
        --s.numPointers;
        if (--s.count == 0)
            s.overflowed = false;
        return;
    }
    if (!s.overflowed)
        panic("ACKwise remove of untracked core %u without overflow", core);
    if (--s.count == 0) {
        s.overflowed = false;
        s.numPointers = 0;
    }
}

void
SharerList::clear()
{
    s_->count = 0;
    s_->overflowed = false;
    s_->numPointers = 0;
    if (s_->isFullMap)
        std::fill_n(bits_, s_->capacity, std::uint64_t{0});
}

bool
SharerList::contains(CoreId core) const
{
    if (s_->isFullMap)
        return (bits_[core / 64] >> (core % 64)) & 1;
    const CoreId *const begin = s_->pointers;
    return std::binary_search(begin, begin + s_->numPointers, core);
}

std::vector<CoreId>
SharerList::tracked() const
{
    std::vector<CoreId> out;
    forEachTracked([&](CoreId c) { out.push_back(c); });
    return out;
}

} // namespace lacc
