#include "core/complete_classifier.hh"

#include <algorithm>
#include <memory>

namespace lacc {

void
CompleteClassifier::resetRecord(std::byte *rec) const
{
    std::uninitialized_fill_n(touched(rec), touchedWords_,
                              std::uint64_t{0});
    std::uninitialized_fill_n(records(rec), numCores_, CompactLocality{});
}

Mode
CompleteClassifier::majorityOfTouched(std::byte *rec) const
{
    const std::uint64_t *t = touched(rec);
    const CompactLocality *r = records(rec);
    std::uint32_t remote = 0, total = 0;
    for (CoreId c = 0; c < numCores_; ++c) {
        if (!((t[c / 64] >> (c % 64)) & 1))
            continue;
        ++total;
        if (r[c].mode == Mode::Remote)
            ++remote;
    }
    return (total > 0 && remote * 2 > total) ? Mode::Remote
                                             : Mode::Private;
}

Mode
CompleteClassifier::classify(std::byte *rec, CoreId core)
{
    std::uint64_t &word = touched(rec)[core / 64];
    const std::uint64_t bit = std::uint64_t{1} << (core % 64);
    CompactLocality &e = records(rec)[core];
    if (!(word & bit)) {
        // Learning short-cut (§5.3, evaluated as an extension): a new
        // sharer starts in the majority mode of the sharers already
        // seen, skipping its per-sharer classification phase.
        if (cfg_.completeLearningShortcut)
            e.mode = majorityOfTouched(rec);
        word |= bit;
    }
    return e.mode;
}

bool
CompleteClassifier::onRemoteAccess(std::byte *rec, CoreId core,
                                   const RemoteAccessContext &ctx)
{
    return remoteAccessDecision(records(rec)[core], ctx);
}

void
CompleteClassifier::onWriteByOther(std::byte *rec, CoreId writer)
{
    CompactLocality *r = records(rec);
    for (CoreId c = 0; c < numCores_; ++c) {
        CompactLocality &e = r[c];
        if (c != writer && e.mode == Mode::Remote) {
            e.remoteUtil = 0;
            e.active = false;
        }
    }
}

Mode
CompleteClassifier::onPrivateRemoval(std::byte *rec, CoreId core,
                                     std::uint32_t private_util,
                                     RemovalKind kind)
{
    return removalDecision(records(rec)[core], private_util, kind);
}

void
CompleteClassifier::onPrivateGrant(std::byte *rec, CoreId core, Cycle now)
{
    (void)now; // RAT levels replace timestamps (§3.3)
    CompactLocality &e = records(rec)[core];
    e.mode = Mode::Private;
    e.active = true;
}

std::optional<CoreLocality>
CompleteClassifier::peek(const std::byte *rec, CoreId core) const
{
    return reinterpret_cast<const CompactLocality *>(
               rec + touchedWords_ * 8)[core]
        .view();
}

} // namespace lacc
