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

#include <vector>

#include "core/classifier.hh"

namespace lacc {

/** Per-line state of the Limited_k classifier: k tracked cores. */
class LimitedLineState : public LineClassifierState
{
  public:
    /** One tracked-core slot. */
    struct Slot
    {
        CoreId core = kInvalidCore; //!< kInvalidCore marks a free slot
        CoreLocality rec;
    };

    /**
     * The k tracked slots, stored inline for k <= kInlineK (every
     * in-repo configuration; Fig 13 sweeps k up to 7) so the hot
     * classify/removal scans touch the state object's own cache
     * lines instead of chasing a separate heap vector. Larger k
     * spills to the heap.
     */
    class SlotArray
    {
      public:
        static constexpr std::uint32_t kInlineK = 8;

        explicit SlotArray(std::uint32_t k) : k_(k)
        {
            if (k_ > kInlineK)
                spill_.resize(k_);
        }

        std::uint32_t size() const { return k_; }
        Slot *begin() { return k_ <= kInlineK ? inline_ : spill_.data(); }
        Slot *end() { return begin() + k_; }
        const Slot *
        begin() const
        {
            return k_ <= kInlineK ? inline_ : spill_.data();
        }
        const Slot *end() const { return begin() + k_; }

      private:
        std::uint32_t k_;
        Slot inline_[kInlineK];
        std::vector<Slot> spill_;
    };

    explicit LimitedLineState(std::uint32_t k) : slots(k) {}

    SlotArray slots;
};

/** The Limited_k classifier. */
class LimitedClassifier : public LocalityClassifier
{
  public:
    LimitedClassifier(const SystemConfig &cfg, bool one_way)
        : LocalityClassifier(cfg, one_way), k_(cfg.classifierK)
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

    /** Majority mode over occupied slots; Private on ties/empty. */
    static Mode majorityVote(const LimitedLineState &s);

  private:
    /** Find the slot tracking @p core, or nullptr. */
    LimitedLineState::Slot *findSlot(LimitedLineState &s, CoreId core);

    /**
     * Ensure @p core is tracked if possible (free slot or inactive
     * replacement). @return its slot or nullptr if untrackable.
     */
    LimitedLineState::Slot *allocate(LimitedLineState &s, CoreId core);

    std::uint32_t k_;
};

} // namespace lacc

#endif // LACC_CORE_LIMITED_CLASSIFIER_HH
