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

#include "core/classifier.hh"

namespace lacc {

/** Tracks locality for all cores (the Complete classifier). */
class CompleteClassifier : public LocalityClassifier
{
  public:
    CompleteClassifier(const SystemConfig &cfg, bool one_way)
        : LocalityClassifier(cfg, one_way),
          touchedWords_((cfg.numCores + 63) / 64)
    {}

    /**
     * Touched bits (cores that interacted with the line: the learning
     * short-cut's electorate), then one CompactLocality per core.
     */
    static std::uint32_t
    recordBytes(const SystemConfig &cfg)
    {
        const std::uint32_t bytes =
            (cfg.numCores + 63) / 64 * 8 +
            cfg.numCores *
                static_cast<std::uint32_t>(sizeof(CompactLocality));
        return (bytes + 7) / 8 * 8;
    }

    void resetRecord(std::byte *rec) const override;

    Mode classify(std::byte *rec, CoreId core) override;

    bool onRemoteAccess(std::byte *rec, CoreId core,
                        const RemoteAccessContext &ctx) override;

    void onWriteByOther(std::byte *rec, CoreId writer) override;

    Mode onPrivateRemoval(std::byte *rec, CoreId core,
                          std::uint32_t private_util,
                          RemovalKind kind) override;

    void onPrivateGrant(std::byte *rec, CoreId core, Cycle now) override;

    std::optional<CoreLocality> peek(const std::byte *rec,
                                     CoreId core) const override;

  private:
    std::uint64_t *
    touched(std::byte *rec) const
    {
        return reinterpret_cast<std::uint64_t *>(rec);
    }

    CompactLocality *
    records(std::byte *rec) const
    {
        return reinterpret_cast<CompactLocality *>(rec +
                                                   touchedWords_ * 8);
    }

    /** Majority mode over cores that already touched the line. */
    Mode majorityOfTouched(std::byte *rec) const;

    std::uint32_t touchedWords_;
};

/** Baseline: every core is always a private sharer; no record. */
class AlwaysPrivateClassifier : public LocalityClassifier
{
  public:
    explicit AlwaysPrivateClassifier(const SystemConfig &cfg)
        : LocalityClassifier(cfg, false)
    {}

    void resetRecord(std::byte *) const override {}

    Mode
    classify(std::byte *, CoreId) override
    {
        return Mode::Private;
    }

    bool
    onRemoteAccess(std::byte *, CoreId,
                   const RemoteAccessContext &) override
    {
        return true; // unreachable in practice: mode is always Private
    }

    void onWriteByOther(std::byte *, CoreId) override {}

    Mode
    onPrivateRemoval(std::byte *, CoreId, std::uint32_t,
                     RemovalKind) override
    {
        return Mode::Private;
    }

    void onPrivateGrant(std::byte *, CoreId, Cycle) override {}

    std::optional<CoreLocality>
    peek(const std::byte *, CoreId) const override
    {
        return std::nullopt;
    }
};

} // namespace lacc

#endif // LACC_CORE_COMPLETE_CLASSIFIER_HH
