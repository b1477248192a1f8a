#include "core/complete_classifier.hh"

#include <algorithm>

namespace lacc {

std::unique_ptr<LineClassifierState>
CompleteClassifier::makeState() const
{
    return std::make_unique<CompleteLineState>(numCores_);
}

void
CompleteClassifier::resetState(LineClassifierState &state) const
{
    auto &s = static_cast<CompleteLineState &>(state);
    std::fill(s.records.begin(), s.records.end(), CoreLocality{});
    std::fill(s.touched.begin(), s.touched.end(), false);
}

void
CompleteClassifier::copyState(LineClassifierState &dst,
                              const LineClassifierState &src) const
{
    static_cast<CompleteLineState &>(dst) =
        static_cast<const CompleteLineState &>(src);
}

Mode
CompleteClassifier::majorityOfTouched(const CompleteLineState &s)
{
    std::uint32_t remote = 0, total = 0;
    for (CoreId c = 0; c < s.records.size(); ++c) {
        if (!s.touched[c])
            continue;
        ++total;
        if (s.records[c].mode == Mode::Remote)
            ++remote;
    }
    return (total > 0 && remote * 2 > total) ? Mode::Remote
                                             : Mode::Private;
}

Mode
CompleteClassifier::classify(LineClassifierState &state, CoreId core)
{
    auto &s = static_cast<CompleteLineState &>(state);
    if (!s.touched[core]) {
        // Learning short-cut (§5.3, evaluated as an extension): a new
        // sharer starts in the majority mode of the sharers already
        // seen, skipping its per-sharer classification phase.
        if (cfg_.completeLearningShortcut)
            s.records[core].mode = majorityOfTouched(s);
        s.touched[core] = true;
    }
    return s.records[core].mode;
}

bool
CompleteClassifier::onRemoteAccess(LineClassifierState &state, CoreId core,
                                   const RemoteAccessContext &ctx)
{
    auto &s = static_cast<CompleteLineState &>(state);
    return remoteAccessDecision(s.records[core], ctx);
}

void
CompleteClassifier::onWriteByOther(LineClassifierState &state,
                                   CoreId writer)
{
    auto &s = static_cast<CompleteLineState &>(state);
    for (CoreId c = 0; c < s.records.size(); ++c) {
        auto &e = s.records[c];
        if (c != writer && e.mode == Mode::Remote) {
            e.remoteUtil = 0;
            e.active = false;
        }
    }
}

Mode
CompleteClassifier::onPrivateRemoval(LineClassifierState &state,
                                     CoreId core,
                                     std::uint32_t private_util,
                                     RemovalKind kind)
{
    auto &s = static_cast<CompleteLineState &>(state);
    return removalDecision(s.records[core], private_util, kind);
}

void
CompleteClassifier::onPrivateGrant(LineClassifierState &state, CoreId core,
                                   Cycle now)
{
    auto &s = static_cast<CompleteLineState &>(state);
    auto &e = s.records[core];
    e.mode = Mode::Private;
    e.active = true;
    e.lastAccess = now;
}

const CoreLocality *
CompleteClassifier::peek(const LineClassifierState &state,
                         CoreId core) const
{
    const auto &s = static_cast<const CompleteLineState &>(state);
    return &s.records[core];
}

} // namespace lacc
