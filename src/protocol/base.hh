/**
 * @file
 * Shared controller machinery of the directory-based protocols.
 *
 * BaseL1Controller implements the private-cache side common to every
 * directory protocol in this repository; BaseDirectoryController
 * implements the home-slice state machine (miss transactions, L2
 * find-or-fill, sync write-backs, inclusive L2 evictions, R-NUCA
 * re-home flushes) and leaves two policy points to subclasses:
 *
 *  - the fresh SharerState every fill installs, passed to the
 *    constructor (ACKwise_p pointers vs full-map bit vector);
 *  - fanOutInvalidations(): how an exclusive request reaches the
 *    current holders (per-sharer unicasts vs the ACKwise overflow
 *    broadcast of §3.1).
 *
 * The locality classifier (Sections 3.2-3.4) is owned and invoked
 * here, at the directory, exactly as in the paper.
 */

#ifndef LACC_PROTOCOL_BASE_HH
#define LACC_PROTOCOL_BASE_HH

#include <memory>
#include <vector>

#include "protocol/protocol.hh"

namespace lacc {

class BaseDirectoryController;

/** Private-cache controller shared by the directory protocols. */
class BaseL1Controller final : public L1Controller
{
  public:
    explicit BaseL1Controller(const ProtocolContext &ctx) : ctx_(ctx) {}

    /** Wire the directory side (factory responsibility). */
    void bind(DirectoryController &dir) { dir_ = &dir; }

    void access(CoreId c, Addr addr, bool is_write, bool is_ifetch,
                bool charge_fetch_energy = true) override;
    bool touchResidentIfetch(CoreId c, Addr addr) override;
    L1Cache::Entry fill(CoreId c, bool is_ifetch, LineAddr line,
                        const std::uint64_t *words, L1State st,
                        Cycle t) override;
    void applyUpgrade(CoreId c, bool is_ifetch, LineAddr line,
                      std::uint32_t word, std::uint64_t val) override;
    DropResult dropCopy(CoreId s, LineAddr line, L2Cache::Entry entry,
                        bool l2_eviction) override;
    bool downgradeCopy(CoreId owner, L2Cache::Entry entry) override;
    bool dropOtherCopy(CoreId c, bool is_ifetch, LineAddr line) override;

  private:
    /** Handle an L1 eviction: notify the home, classify (§3.2). */
    void evict(CoreId c, bool is_ifetch, L1Cache::Entry victim,
               Cycle t);

    ProtocolContext ctx_;
    DirectoryController *dir_ = nullptr;
};

/** Home-slice directory controller shared by the protocols. */
class BaseDirectoryController : public DirectoryController
{
  public:
    /** @p fresh: the sharer list organization of a filled entry. */
    BaseDirectoryController(const ProtocolContext &ctx,
                            const SharerState &fresh);

    /** Wire the L1 side (factory responsibility). */
    void bind(L1Controller &l1) { l1_ = &l1; }

    void request(CoreId c, Addr addr, bool is_write, bool is_ifetch,
                 bool upgrade, const L1SetHint &hint) override;
    void evictionNotice(CoreId home, CoreId c, LineAddr line,
                        bool was_modified, const std::uint64_t *words,
                        std::uint32_t util, bool still_holds) override;
    CoreId homeOf(LineAddr line, CoreId requester) const override;
    LocalityClassifier &classifier() override { return *classifier_; }
    const LocalityClassifier &
    classifier() const override
    {
        return *classifier_;
    }

  protected:
    /**
     * Deliver invalidations to @p targets and collect the acks.
     * The base implementation unicasts per sharer; ACKwise overrides
     * this with the overflow broadcast. @p targets aliases a scratch
     * member of this controller (no per-transaction allocation) and
     * stays valid for the duration of the call. @return time all acks
     * have been collected.
     */
    virtual Cycle fanOutInvalidations(CoreId home, L2Cache::Entry entry,
                                      const HolderVec &targets,
                                      Cycle t);

    /**
     * Drop @p s's copy (L1 side), consult the classifier (unless the
     * entry itself is dying to an L2 eviction), and send the ack.
     * @return ack arrival time at @p home.
     */
    Cycle dropAndAck(CoreId s, CoreId home, L2Cache::Entry entry,
                     bool l2_eviction, Cycle t_arr);

    /**
     * Invalidate all private holders except @p except; merges M data
     * into the L2 copy. @return time all acks have been collected.
     */
    Cycle invalidateHolders(CoreId home, L2Cache::Entry entry,
                            CoreId except, Cycle t);

    /**
     * Find the line in the home slice or fill it from DRAM.
     * Outputs the stage boundary times for attribution.
     */
    L2Cache::Entry l2FindOrFill(CoreId home, LineAddr line, Cycle t_arr,
                                Cycle &t_ready, Cycle &waiting,
                                Cycle &offchip);

    /** Downgrade the exclusive owner (read path): data to L2, owner
     * keeps an S copy. @return ack time. */
    Cycle syncWriteback(CoreId home, L2Cache::Entry entry, Cycle t);

    /**
     * Soft-error hook (fault/injector.hh), called once per directory
     * transaction when a fault plan is armed: rolls one strike each
     * against the requester's resident L1 copy, the home entry's L2
     * data, and the directory metadata. Protected structures recover
     * with honest charges — @p corr accumulates SECDED correction
     * latency (billed as L2 waiting), @p scrub accumulates
     * refetch-from-next-level latency (billed as off-chip) — while
     * unprotected structures suffer a *real* corruption for the
     * verification oracles to catch. Detected-but-unrecoverable
     * strikes throw RunAbort.
     */
    void applySoftFaults(CoreId c, CoreId home, LineAddr line,
                         L2Cache::Entry entry, Cycle t, Cycle &corr,
                         Cycle &scrub);

    /** Evict an L2 line: back-invalidate holders, write back. */
    void l2Evict(CoreId home, L2Cache::Entry victim, Cycle t);

    /** R-NUCA private->shared re-homing flush (§3.1). */
    void flushPage(CoreId old_home, PageAddr page, Cycle t);

    ProtocolContext ctx_;
    L1Controller *l1_ = nullptr;
    std::unique_ptr<LocalityClassifier> classifier_;
    const DirLayout layout_;
    const SharerState freshSharers_;

  private:
    /**
     * Reusable target-list scratch (invalidation fan-out / L2
     * eviction back-invalidation). Steady state is allocation-free:
     * the inline HolderVec capacity covers typical sharer sets, and
     * a spilled copy reuses the spill buffer.
     * invalidateHolders and l2Evict never nest, but each gets its own
     * scratch so the snapshot survives holder-set mutation.
     */
    HolderVec invalTargets_;
    HolderVec evictTargets_;
};

} // namespace lacc

#endif // LACC_PROTOCOL_BASE_HH
