/**
 * @file
 * Complete locality classifier (§3.2/§3.3): per-line locality records
 * for every core in the system, with RAT levels replacing the
 * idealized timestamps. Storage-hungry (Fig 6, 60% overhead at 64
 * cores) but the accuracy reference for the Limited_k classifier.
 *
 * Also defines AlwaysPrivateClassifier, the degenerate classifier that
 * keeps every core a private sharer forever — the baseline directory
 * protocol (equivalent to PCT = 1).
 */

#ifndef LACC_CORE_COMPLETE_CLASSIFIER_HH
#define LACC_CORE_COMPLETE_CLASSIFIER_HH

#include <vector>

#include "core/classifier.hh"

namespace lacc {

/** Per-line state of the Complete classifier: one record per core. */
class CompleteLineState : public LineClassifierState
{
  public:
    explicit CompleteLineState(std::uint32_t num_cores)
        : records(num_cores), touched(num_cores, false)
    {}

    std::vector<CoreLocality> records;
    /** Cores that have interacted with the line (learning short-cut). */
    std::vector<bool> touched;
};

/** Tracks locality for all cores (the Complete classifier). */
class CompleteClassifier : public LocalityClassifier
{
  public:
    CompleteClassifier(const SystemConfig &cfg, bool one_way)
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

  private:
    /** Majority mode over cores that already touched the line. */
    static Mode majorityOfTouched(const CompleteLineState &s);
};

/** Baseline: every core is always a private sharer. */
class AlwaysPrivateClassifier : public LocalityClassifier
{
  public:
    explicit AlwaysPrivateClassifier(const SystemConfig &cfg)
        : LocalityClassifier(cfg, false)
    {}

    std::unique_ptr<LineClassifierState>
    makeState() const override
    {
        // No per-line state is required; an empty base object keeps
        // the protocol free of null checks.
        return std::make_unique<LineClassifierState>();
    }

    void resetState(LineClassifierState &) const override {}
    void
    copyState(LineClassifierState &,
              const LineClassifierState &) const override
    {}

    Mode
    classify(LineClassifierState &, CoreId) override
    {
        return Mode::Private;
    }

    bool
    onRemoteAccess(LineClassifierState &, CoreId,
                   const RemoteAccessContext &) override
    {
        return true; // unreachable in practice: mode is always Private
    }

    void onWriteByOther(LineClassifierState &, CoreId) override {}

    Mode
    onPrivateRemoval(LineClassifierState &, CoreId, std::uint32_t,
                     RemovalKind) override
    {
        return Mode::Private;
    }

    void onPrivateGrant(LineClassifierState &, CoreId, Cycle) override {}

    const CoreLocality *
    peek(const LineClassifierState &, CoreId) const override
    {
        return nullptr;
    }
};

} // namespace lacc

#endif // LACC_CORE_COMPLETE_CLASSIFIER_HH
