/**
 * @file
 * Timestamp-based locality classifier (§3.2) — the idealized scheme
 * the RAT heuristic approximates (Fig 12 reference).
 *
 * The directory keeps, per line and per core, a 64-bit last-access
 * timestamp besides the mode and remote utilization. A remote access
 * increments the utilization counter only when the Timestamp check
 * passes: the line's last access (by the requesting core, at the L2)
 * is more recent than the minimum last-access time over the valid
 * lines in the requester's L1 set (communicated with the miss);
 * otherwise the counter resets to 1. The check passes trivially when
 * the requester's set has an invalid way. Promotion happens at PCT.
 */

#ifndef LACC_CORE_TIMESTAMP_CLASSIFIER_HH
#define LACC_CORE_TIMESTAMP_CLASSIFIER_HH

#include <vector>

#include "core/classifier.hh"

namespace lacc {

/** Per-line state: full per-core records with timestamps (Fig 6). */
class TimestampLineState : public LineClassifierState
{
  public:
    explicit TimestampLineState(std::uint32_t num_cores)
        : records(num_cores)
    {}

    std::vector<CoreLocality> records;
};

/** The idealized Timestamp-based classifier. */
class TimestampClassifier : public LocalityClassifier
{
  public:
    TimestampClassifier(const SystemConfig &cfg, bool one_way)
        : LocalityClassifier(cfg, one_way)
    {}

    std::unique_ptr<LineClassifierState> makeState() const override;
    void resetState(LineClassifierState &state) const override;
    void copyState(LineClassifierState &dst,
                   const LineClassifierState &src) const override;

    Mode classify(LineClassifierState &state, CoreId core) override;

    bool onRemoteAccess(LineClassifierState &state, CoreId core,
                        const RemoteAccessContext &ctx) override;

    void onWriteByOther(LineClassifierState &state,
                        CoreId writer) override;

    Mode onPrivateRemoval(LineClassifierState &state, CoreId core,
                          std::uint32_t private_util,
                          RemovalKind kind) override;

    void onPrivateGrant(LineClassifierState &state, CoreId core,
                        Cycle now) override;

    const CoreLocality *peek(const LineClassifierState &state,
                             CoreId core) const override;
};

} // namespace lacc

#endif // LACC_CORE_TIMESTAMP_CLASSIFIER_HH
