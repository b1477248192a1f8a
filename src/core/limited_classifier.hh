/**
 * @file
 * Limited_k locality classifier (§3.4, Fig 7).
 *
 * The directory tracks locality records {core ID, mode, remote
 * utilization, RAT level} for at most k cores per line. Lookup
 * protocol, applied once per directory transaction via classify():
 *
 *  1. tracked core          -> use its record;
 *  2. free entry            -> allocate; the core starts Private
 *                              (the protocol initializes all cores as
 *                              private sharers, §3.2);
 *  3. inactive tracked core -> replace it; the newcomer starts in the
 *                              majority mode of the tracked cores;
 *  4. otherwise             -> majority vote, list unchanged (the core
 *                              remains untracked).
 *
 * Inactive sharers: a private sharer becomes inactive on invalidation
 * or eviction; a remote sharer becomes inactive on a write by another
 * core. Majority-vote ties resolve to Private (the protocol's initial
 * mode). The paper finds k = 3 sufficient to offset mis-seeding (§5.3).
 */

#ifndef LACC_CORE_LIMITED_CLASSIFIER_HH
#define LACC_CORE_LIMITED_CLASSIFIER_HH

#include "core/classifier.hh"

namespace lacc {

/**
 * One tracked-core slot of a Limited_k record: 8 bytes holding the
 * core id (kInvalidCore marks a free slot) and its compact locality
 * record. A line's record is k consecutive slots.
 */
struct LimitedSlot
{
    CoreId core = kInvalidCore;
    CompactLocality rec;
};
static_assert(sizeof(LimitedSlot) == 8, "Limited_k slots are 8 bytes");
static_assert(std::is_trivially_copyable_v<LimitedSlot>,
              "records are copied as bytes (snapshot restore)");

/** The Limited_k classifier. */
class LimitedClassifier : public LocalityClassifier
{
  public:
    LimitedClassifier(const SystemConfig &cfg, bool one_way)
        : LocalityClassifier(cfg, one_way), k_(cfg.classifierK)
    {}

    /** k slots of 8 bytes. */
    static std::uint32_t
    recordBytes(const SystemConfig &cfg)
    {
        return cfg.classifierK * static_cast<std::uint32_t>(
                                     sizeof(LimitedSlot));
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
    LimitedSlot *
    slots(std::byte *rec) const
    {
        return reinterpret_cast<LimitedSlot *>(rec);
    }

    /** Majority mode over occupied slots; Private on ties/empty. */
    Mode majorityVote(const LimitedSlot *s) const;

    /** Find the slot tracking @p core, or nullptr. */
    LimitedSlot *findSlot(LimitedSlot *s, CoreId core) const;

    /**
     * Ensure @p core is tracked if possible (free slot or inactive
     * replacement). @return its slot or nullptr if untrackable.
     */
    LimitedSlot *allocate(LimitedSlot *s, CoreId core) const;

    std::uint32_t k_;
};

} // namespace lacc

#endif // LACC_CORE_LIMITED_CLASSIFIER_HH
