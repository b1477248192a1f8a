#include "core/limited_classifier.hh"

#include <memory>

namespace lacc {

void
LimitedClassifier::resetRecord(std::byte *rec) const
{
    std::uninitialized_fill_n(slots(rec), k_, LimitedSlot{});
}

Mode
LimitedClassifier::majorityVote(const LimitedSlot *s) const
{
    std::uint32_t remote = 0, total = 0;
    for (const LimitedSlot *slot = s; slot != s + k_; ++slot) {
        if (slot->core == kInvalidCore)
            continue;
        ++total;
        if (slot->rec.mode == Mode::Remote)
            ++remote;
    }
    // Ties (incl. the empty list) resolve to Private: the protocol's
    // initial classification for every core (§3.2).
    return (total > 0 && remote * 2 > total) ? Mode::Remote
                                             : Mode::Private;
}

LimitedSlot *
LimitedClassifier::findSlot(LimitedSlot *s, CoreId core) const
{
    for (LimitedSlot *slot = s; slot != s + k_; ++slot)
        if (slot->core == core)
            return slot;
    return nullptr;
}

LimitedSlot *
LimitedClassifier::allocate(LimitedSlot *s, CoreId core) const
{
    // Free entry: the newcomer starts out Private like every core at
    // protocol start (§3.2).
    for (LimitedSlot *slot = s; slot != s + k_; ++slot) {
        if (slot->core == kInvalidCore) {
            *slot = LimitedSlot{core, CompactLocality{}};
            return slot;
        }
    }
    // Replacement: an inactive sharer relinquishes its entry; the
    // newcomer is seeded with the majority mode of the tracked cores
    // (vote taken before the replacement, §3.4).
    for (LimitedSlot *slot = s; slot != s + k_; ++slot) {
        if (!slot->rec.active) {
            const Mode seed = majorityVote(s);
            *slot = LimitedSlot{core, CompactLocality{}};
            slot->rec.mode = seed;
            return slot;
        }
    }
    return nullptr;
}

Mode
LimitedClassifier::classify(std::byte *rec, CoreId core)
{
    LimitedSlot *s = slots(rec);
    if (auto *slot = findSlot(s, core))
        return slot->rec.mode;
    if (auto *slot = allocate(s, core))
        return slot->rec.mode;
    return majorityVote(s);
}

bool
LimitedClassifier::onRemoteAccess(std::byte *rec, CoreId core,
                                  const RemoteAccessContext &ctx)
{
    LimitedSlot *s = slots(rec);
    auto *slot = findSlot(s, core);
    if (slot == nullptr)
        slot = allocate(s, core);
    if (slot == nullptr) {
        // Untracked and untrackable: no utilization accrues, so the
        // core cannot earn a promotion (§3.4: the list is unchanged).
        return false;
    }
    return remoteAccessDecision(slot->rec, ctx);
}

void
LimitedClassifier::onWriteByOther(std::byte *rec, CoreId writer)
{
    LimitedSlot *s = slots(rec);
    for (LimitedSlot *slot = s; slot != s + k_; ++slot) {
        if (slot->core == kInvalidCore || slot->core == writer)
            continue;
        if (slot->rec.mode == Mode::Remote) {
            slot->rec.remoteUtil = 0;
            slot->rec.active = false;
        }
    }
}

Mode
LimitedClassifier::onPrivateRemoval(std::byte *rec, CoreId core,
                                    std::uint32_t private_util,
                                    RemovalKind kind)
{
    LimitedSlot *s = slots(rec);
    if (auto *slot = findSlot(s, core))
        return removalDecision(slot->rec, private_util, kind);
    // The core lost its entry while holding the line; no utilization
    // record survives, so future requests fall back to the vote.
    return majorityVote(s);
}

void
LimitedClassifier::onPrivateGrant(std::byte *rec, CoreId core, Cycle now)
{
    (void)now; // Limited_k keeps no timestamps
    if (auto *slot = findSlot(slots(rec), core)) {
        slot->rec.mode = Mode::Private;
        slot->rec.active = true;
    }
}

std::optional<CoreLocality>
LimitedClassifier::peek(const std::byte *rec, CoreId core) const
{
    const auto *s = reinterpret_cast<const LimitedSlot *>(rec);
    for (const LimitedSlot *slot = s; slot != s + k_; ++slot)
        if (slot->core == core)
            return slot->rec.view();
    return std::nullopt;
}

} // namespace lacc
