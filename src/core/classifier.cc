#include "core/classifier.hh"

#include <algorithm>

#include "core/complete_classifier.hh"
#include "core/limited_classifier.hh"
#include "core/timestamp_classifier.hh"
#include "sim/log.hh"

namespace lacc {

bool
LocalityClassifier::remoteAccessDecision(CompactLocality &e,
                                         const RemoteAccessContext &ctx)
    const
{
    (void)ctx;
    e.active = true;
    // Saturate at RATmax: the counter width is sized for RATmax
    // (§3.3: "the number of bits needed to track remote utilization
    // should not be too high").
    if (e.remoteUtil < cfg_.ratMax)
        ++e.remoteUtil;

    if (oneWay_)
        return false; // Adapt1-way: remote sharers stay remote (§3.7)

    // Short-cut (§3.3): an invalid way in the requester's L1 set means
    // a fill cannot pollute, so PCT suffices regardless of RAT level.
    if (ctx.hasInvalidWay && e.remoteUtil >= pct_) {
        e.mode = Mode::Private;
        return true;
    }
    const std::uint32_t rat = cfg_.ratForLevel(e.ratLevel);
    if (e.remoteUtil >= rat) {
        e.mode = Mode::Private;
        return true;
    }
    return false;
}

std::uint32_t
LocalityClassifier::recordBytes(const SystemConfig &cfg)
{
    switch (cfg.classifierKind) {
      case ClassifierKind::Complete:
        return CompleteClassifier::recordBytes(cfg);
      case ClassifierKind::Limited:
        return LimitedClassifier::recordBytes(cfg);
      case ClassifierKind::Timestamp:
        return TimestampClassifier::recordBytes(cfg);
      case ClassifierKind::AlwaysPrivate:
        return 0;
      default:
        panic("unknown classifier kind");
    }
}

std::unique_ptr<LocalityClassifier>
LocalityClassifier::create(const SystemConfig &cfg)
{
    const bool one_way = cfg.protocolKind == ProtocolKind::AdaptOneWay;
    switch (cfg.classifierKind) {
      case ClassifierKind::Complete:
        return std::make_unique<CompleteClassifier>(cfg, one_way);
      case ClassifierKind::Limited:
        return std::make_unique<LimitedClassifier>(cfg, one_way);
      case ClassifierKind::Timestamp:
        return std::make_unique<TimestampClassifier>(cfg, one_way);
      case ClassifierKind::AlwaysPrivate:
        return std::make_unique<AlwaysPrivateClassifier>(cfg);
      default:
        panic("unknown classifier kind");
    }
}

} // namespace lacc
