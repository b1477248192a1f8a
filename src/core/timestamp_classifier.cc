#include "core/timestamp_classifier.hh"

#include <memory>

namespace lacc {

void
TimestampClassifier::resetRecord(std::byte *rec) const
{
    std::uninitialized_fill_n(records(rec), numCores_,
                              TimestampLocality{});
}

Mode
TimestampClassifier::classify(std::byte *rec, CoreId core)
{
    return records(rec)[core].mode;
}

bool
TimestampClassifier::onRemoteAccess(std::byte *rec, CoreId core,
                                    const RemoteAccessContext &ctx)
{
    TimestampLocality &e = records(rec)[core];
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
TimestampClassifier::onWriteByOther(std::byte *rec, CoreId writer)
{
    TimestampLocality *r = records(rec);
    for (CoreId c = 0; c < numCores_; ++c) {
        TimestampLocality &e = r[c];
        if (c != writer && e.mode == Mode::Remote) {
            e.remoteUtil = 0;
            e.active = false;
        }
    }
}

Mode
TimestampClassifier::onPrivateRemoval(std::byte *rec, CoreId core,
                                      std::uint32_t private_util,
                                      RemovalKind kind)
{
    // The (private + remote) >= PCT rule is shared with the RAT-based
    // classifiers; RAT-level updates are harmless here because this
    // classifier never consults the level.
    return removalDecision(records(rec)[core], private_util, kind);
}

void
TimestampClassifier::onPrivateGrant(std::byte *rec, CoreId core,
                                    Cycle now)
{
    TimestampLocality &e = records(rec)[core];
    e.mode = Mode::Private;
    e.active = true;
    e.lastAccess = now;
}

std::optional<CoreLocality>
TimestampClassifier::peek(const std::byte *rec, CoreId core) const
{
    const TimestampLocality &e =
        reinterpret_cast<const TimestampLocality *>(rec)[core];
    return CoreLocality{e.mode, e.remoteUtil, e.ratLevel, e.active,
                        e.lastAccess};
}

} // namespace lacc
