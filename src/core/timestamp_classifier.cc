#include "core/timestamp_classifier.hh"

#include <algorithm>

namespace lacc {

void
TimestampClassifier::resetState(LineClassifierState &state) const
{
    auto &s = static_cast<TimestampLineState &>(state);
    std::fill(s.records.begin(), s.records.end(), CoreLocality{});
}

void
TimestampClassifier::copyState(LineClassifierState &dst,
                               const LineClassifierState &src) const
{
    static_cast<TimestampLineState &>(dst) =
        static_cast<const TimestampLineState &>(src);
}

std::unique_ptr<LineClassifierState>
TimestampClassifier::makeState() const
{
    return std::make_unique<TimestampLineState>(numCores_);
}

Mode
TimestampClassifier::classify(LineClassifierState &state, CoreId core)
{
    auto &s = static_cast<TimestampLineState &>(state);
    return s.records[core].mode;
}

bool
TimestampClassifier::onRemoteAccess(LineClassifierState &state,
                                    CoreId core,
                                    const RemoteAccessContext &ctx)
{
    auto &s = static_cast<TimestampLineState &>(state);
    auto &e = s.records[core];
    e.active = true;

    // Timestamp check (§3.2): accrue utilization only if this line is
    // hotter (for this core) than the coldest valid line in the
    // requester's L1 set; trivially true with an invalid way.
    const bool check = ctx.hasInvalidWay ||
                       (e.lastAccess > ctx.l1MinLastAccess);
    e.remoteUtil = check ? e.remoteUtil + 1 : 1;
    e.lastAccess = ctx.now;

    if (oneWay_)
        return false;

    if (e.remoteUtil >= pct_) {
        e.mode = Mode::Private;
        return true;
    }
    return false;
}

void
TimestampClassifier::onWriteByOther(LineClassifierState &state,
                                    CoreId writer)
{
    auto &s = static_cast<TimestampLineState &>(state);
    for (CoreId c = 0; c < s.records.size(); ++c) {
        auto &e = s.records[c];
        if (c != writer && e.mode == Mode::Remote) {
            e.remoteUtil = 0;
            e.active = false;
        }
    }
}

Mode
TimestampClassifier::onPrivateRemoval(LineClassifierState &state,
                                      CoreId core,
                                      std::uint32_t private_util,
                                      RemovalKind kind)
{
    auto &s = static_cast<TimestampLineState &>(state);
    // The (private + remote) >= PCT rule is shared with the RAT-based
    // classifiers; RAT-level updates are harmless here because this
    // classifier never consults the level.
    return removalDecision(s.records[core], private_util, kind);
}

void
TimestampClassifier::onPrivateGrant(LineClassifierState &state,
                                    CoreId core, Cycle now)
{
    auto &s = static_cast<TimestampLineState &>(state);
    auto &e = s.records[core];
    e.mode = Mode::Private;
    e.active = true;
    e.lastAccess = now;
}

const CoreLocality *
TimestampClassifier::peek(const LineClassifierState &state,
                          CoreId core) const
{
    const auto &s = static_cast<const TimestampLineState &>(state);
    return &s.records[core];
}

} // namespace lacc
