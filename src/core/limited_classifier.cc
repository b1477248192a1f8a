#include "core/limited_classifier.hh"

#include <algorithm>

namespace lacc {

std::unique_ptr<LineClassifierState>
LimitedClassifier::makeState() const
{
    return std::make_unique<LimitedLineState>(k_);
}

void
LimitedClassifier::resetState(LineClassifierState &state) const
{
    auto &s = static_cast<LimitedLineState &>(state);
    std::fill(s.slots.begin(), s.slots.end(),
              LimitedLineState::Slot{});
}

void
LimitedClassifier::copyState(LineClassifierState &dst,
                             const LineClassifierState &src) const
{
    static_cast<LimitedLineState &>(dst) =
        static_cast<const LimitedLineState &>(src);
}

Mode
LimitedClassifier::majorityVote(const LimitedLineState &s)
{
    std::uint32_t remote = 0, total = 0;
    for (const auto &slot : s.slots) {
        if (slot.core == kInvalidCore)
            continue;
        ++total;
        if (slot.rec.mode == Mode::Remote)
            ++remote;
    }
    // Ties (incl. the empty list) resolve to Private: the protocol's
    // initial classification for every core (§3.2).
    return (total > 0 && remote * 2 > total) ? Mode::Remote
                                             : Mode::Private;
}

LimitedLineState::Slot *
LimitedClassifier::findSlot(LimitedLineState &s, CoreId core)
{
    for (auto &slot : s.slots)
        if (slot.core == core)
            return &slot;
    return nullptr;
}

LimitedLineState::Slot *
LimitedClassifier::allocate(LimitedLineState &s, CoreId core)
{
    // Free entry: the newcomer starts out Private like every core at
    // protocol start (§3.2).
    for (auto &slot : s.slots) {
        if (slot.core == kInvalidCore) {
            slot.core = core;
            slot.rec = CoreLocality{};
            return &slot;
        }
    }
    // Replacement: an inactive sharer relinquishes its entry; the
    // newcomer is seeded with the majority mode of the tracked cores
    // (vote taken before the replacement, §3.4).
    for (auto &slot : s.slots) {
        if (!slot.rec.active) {
            const Mode seed = majorityVote(s);
            slot.core = core;
            slot.rec = CoreLocality{};
            slot.rec.mode = seed;
            return &slot;
        }
    }
    return nullptr;
}

Mode
LimitedClassifier::classify(LineClassifierState &state, CoreId core)
{
    auto &s = static_cast<LimitedLineState &>(state);
    if (auto *slot = findSlot(s, core))
        return slot->rec.mode;
    if (auto *slot = allocate(s, core))
        return slot->rec.mode;
    return majorityVote(s);
}

bool
LimitedClassifier::onRemoteAccess(LineClassifierState &state, CoreId core,
                                  const RemoteAccessContext &ctx)
{
    auto &s = static_cast<LimitedLineState &>(state);
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
LimitedClassifier::onWriteByOther(LineClassifierState &state,
                                  CoreId writer)
{
    auto &s = static_cast<LimitedLineState &>(state);
    for (auto &slot : s.slots) {
        if (slot.core == kInvalidCore || slot.core == writer)
            continue;
        if (slot.rec.mode == Mode::Remote) {
            slot.rec.remoteUtil = 0;
            slot.rec.active = false;
        }
    }
}

Mode
LimitedClassifier::onPrivateRemoval(LineClassifierState &state,
                                    CoreId core,
                                    std::uint32_t private_util,
                                    RemovalKind kind)
{
    auto &s = static_cast<LimitedLineState &>(state);
    if (auto *slot = findSlot(s, core))
        return removalDecision(slot->rec, private_util, kind);
    // The core lost its entry while holding the line; no utilization
    // record survives, so future requests fall back to the vote.
    return majorityVote(s);
}

void
LimitedClassifier::onPrivateGrant(LineClassifierState &state, CoreId core,
                                  Cycle now)
{
    auto &s = static_cast<LimitedLineState &>(state);
    if (auto *slot = findSlot(s, core)) {
        slot->rec.mode = Mode::Private;
        slot->rec.active = true;
        slot->rec.lastAccess = now;
    }
}

const CoreLocality *
LimitedClassifier::peek(const LineClassifierState &state,
                        CoreId core) const
{
    const auto &s = static_cast<const LimitedLineState &>(state);
    for (const auto &slot : s.slots)
        if (slot.core == core)
            return &slot.rec;
    return nullptr;
}

} // namespace lacc
