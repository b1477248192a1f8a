/**
 * @file
 * The coherence controllers: the paper's locality-aware adaptive
 * protocol over a directory whose organization is one number, the
 * overflow limit (§3).
 *
 *  - L1Controller: the private-cache side — L1 lookups, fills,
 *    evictions (with the fire-and-forget notice), receipt of
 *    invalidations/downgrades, and forwarding misses (plus the L1-set
 *    hint that feeds the remote-access decision, §3.2/§3.3) to the
 *    directory.
 *  - DirectoryController: the home-slice side — L2Meta ownership,
 *    the locality-classifier invocation, miss transactions,
 *    invalidation fan-out, sync write-backs, L2 fills/evictions,
 *    R-NUCA re-home flushes, and DRAM traffic.
 *
 * The two directory organizations differ only in one number, the
 * overflow limit (overflowLimit, protocol/dir_entry.hh). Once more
 * than p holders arrive, an ACKwise_p entry sets its sticky overflow
 * bit, and an exclusive request then broadcasts the invalidation with
 * acks expected only from the actual sharers (§3.1); a full map has
 * no limit and never broadcasts. The locality classifier
 * (SystemConfig::classifierKind) is owned and invoked at the
 * directory, exactly as in the paper, and composes with either
 * organization.
 *
 * Multicore owns one controller of each side, wired to each other by
 * reference. They reach the rest of the chip through Message
 * descriptors (protocol/messages.hh) and the shared ProtocolContext.
 * The protocol names ("lacc", "fullmap") map onto directoryKind here
 * too, so the harness can sweep organizations by name.
 */

#ifndef LACC_PROTOCOL_PROTOCOL_HH
#define LACC_PROTOCOL_PROTOCOL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/classifier.hh"
#include "protocol/dir_entry.hh"
#include "protocol/messages.hh"
#include "sim/addr_map.hh"
#include "sim/types.hh"

namespace lacc {

class DramModel;
class EnergyModel;
class FunctionalMemory;
class PageTable;
class Placement;
class Tile;
struct SystemConfig;
struct SystemStats;

/**
 * Everything the controllers may touch, owned by the enclosing
 * Multicore: configuration and address geometry, the tiles (L1s, L2
 * slices, per-core stats/clocks), the message transport, the
 * energy/DRAM models, R-NUCA placement state, whole-system
 * statistics, the functional reference memory, and the fault
 * injector (may be null).
 */
struct ProtocolContext
{
    const SystemConfig &cfg;
    const AddressMap &addr;
    std::vector<std::unique_ptr<Tile>> &tiles;
    MessageTransport &net;
    EnergyModel &energy;
    DramModel &dram;
    PageTable &pageTable;
    const Placement &placement;
    SystemStats &stats;
    FunctionalMemory &mem;

    /**
     * Armed fault injector (fault/injector.hh), or null under
     * FaultPlan none — the soft-error hook in the directory
     * transaction path costs exactly one null test when disabled.
     */
    FaultInjector *fault = nullptr;
};

/**
 * L1 set information communicated with a miss (§3.2/§3.3): whether
 * the requester's set has an invalid way (short-cut promotion at PCT)
 * and the minimum last-access time over its valid lines (Timestamp
 * classifier check).
 */
struct L1SetHint
{
    bool hasInvalidWay = false;
    Cycle minLastAccess = 0;
};

/** Outcome of removing a holder's L1 copies (invalidation receipt). */
struct DropResult
{
    /** Private utilization at removal, summed over the core's copies
     * (a line can sit in both L1-D and L1-I). */
    std::uint32_t util = 0;
    bool wasModified = false; //!< a copy was M: data merged into the L2
};

class DirectoryController;

/** Private-cache side of the protocol; one instance per system. */
class L1Controller
{
  public:
    /** @p dir may still be under construction; it is only stored. */
    L1Controller(const ProtocolContext &ctx, DirectoryController &dir)
        : ctx_(ctx), dir_(dir)
    {}

    /**
     * One data or instruction access on core @p c at its current
     * local time; advances the core's clock and attributes latency.
     * Misses run the full directory transaction before returning.
     *
     * @param charge_fetch_energy explicit accesses charge L1 energy;
     *        walker-originated ifetches are covered by the bulk
     *        per-instruction fetch energy
     */
    void access(CoreId c, Addr addr, bool is_write, bool is_ifetch,
                bool charge_fetch_energy = true);

    /**
     * Ifetch-walker fast path: touch a resident I-line (LRU +
     * utilization + load count). @return false on a miss (the caller
     * then issues a full access with bulk-charged fetch energy).
     */
    bool touchResidentIfetch(CoreId c, Addr addr);

    /**
     * Install a line into an L1 (private grant), evicting the victim
     * if needed. @p words points at one line of data (the system's
     * wordsPerLine() words), typically the granting L2 entry's arena
     * slice; it is copied into the L1's arena. @return a handle to
     * the installed entry (write grants poke the stored word into it).
     */
    L1Cache::Entry fill(CoreId c, bool is_ifetch, LineAddr line,
                        const std::uint64_t *words, L1State st, Cycle t);

    /** Apply an upgrade grant to the requester's S copy (S -> M). */
    void applyUpgrade(CoreId c, bool is_ifetch, LineAddr line,
                      std::uint32_t word, std::uint64_t val);

    /**
     * Remove every L1 copy a holder core has of @p line
     * (invalidation receipt; a core can hold a line in both L1-D and
     * L1-I). Merges M data into @p entry's L2 copy and records
     * utilization/miss-type bookkeeping per copy.
     *
     * @param l2_eviction true when driven by an inclusive L2
     *        eviction: the tracker records a capacity event (and the
     *        directory skips the classifier, whose per-line state
     *        dies with the entry)
     */
    DropResult dropCopy(CoreId s, LineAddr line, L2Cache::Entry entry,
                        bool l2_eviction);

    /**
     * Downgrade the exclusive owner's copy to S (sync write-back),
     * merging M data into @p entry. @return true if the copy was M.
     */
    bool downgradeCopy(CoreId owner, L2Cache::Entry entry);

    /**
     * Drop the requester's copy of @p line in its *other* L1 (the
     * one the current access did not miss in), if any — after a
     * write, a dual-copy line's second copy is stale. A local action
     * on the requester's own tile: no message, no directory stats,
     * and never Modified (only L1-D copies can be M, and writes miss
     * in L1-D). @return true if a copy was dropped.
     */
    bool dropOtherCopy(CoreId c, bool is_ifetch, LineAddr line);

  private:
    /** Handle an L1 eviction: notify the home, classify (§3.2). */
    void evict(CoreId c, bool is_ifetch, L1Cache::Entry victim,
               Cycle t);

    ProtocolContext ctx_;
    DirectoryController &dir_;
};

/** Home-slice (directory) side of the protocol; one per system. */
class DirectoryController
{
  public:
    /**
     * @p ctx's config fixes the overflow limit. @p l1 may still be
     * under construction; it is only stored.
     */
    DirectoryController(const ProtocolContext &ctx, L1Controller &l1);

    /**
     * Run one full miss transaction for core @p c at the line's home:
     * R-NUCA classification, L2 find-or-fill, classifier-driven
     * private-vs-remote service, invalidation / sync-write-back
     * fan-out, the reply message, and completion-time attribution.
     */
    void request(CoreId c, Addr addr, bool is_write, bool is_ifetch,
                 bool upgrade, const L1SetHint &hint);

    /**
     * Home-side handling of an L1 eviction notice: directory entry
     * update, dirty write-back merge, and eviction classification
     * (§3.2). @p words points at the victim's line data (still live
     * in the evicting L1's arena when this is called).
     *
     * @param still_holds the core still has a copy of the line in
     *        its other L1 (L1-I vs L1-D): the holder entry and
     *        sharer tracking must survive this notice
     */
    void evictionNotice(CoreId home, CoreId c, LineAddr line,
                        bool was_modified, const std::uint64_t *words,
                        std::uint32_t util, bool still_holds);

    /** Home slice for a line (page table must already classify it). */
    CoreId homeOf(LineAddr line, CoreId requester) const;

    /** The locality classifier this directory consults. */
    LocalityClassifier &classifier() { return *classifier_; }
    const LocalityClassifier &classifier() const { return *classifier_; }

  private:
    /**
     * Deliver invalidations to @p targets and collect the acks: one
     * broadcast when the entry has overflowed (never under a full
     * map), otherwise one unicast per sharer.
     * @p targets aliases a scratch member of this controller (no
     * per-transaction allocation) and stays valid for the duration of
     * the call. @return time all acks have been collected.
     */
    Cycle fanOutInvalidations(CoreId home, L2Cache::Entry entry,
                              const HolderVec &targets, Cycle t);

    /**
     * Unicast an invalidation to @p s at @p t, then drop its copy and
     * ack (dropAndAck). @return ack arrival time at @p home.
     */
    Cycle unicastInvalidation(CoreId s, CoreId home, L2Cache::Entry entry,
                              bool l2_eviction, Cycle t);

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
     * unprotected L1/L2 data suffers a *real* corruption for the
     * verification oracles to catch. Directory metadata is always
     * protected. Detected-but-unrecoverable strikes throw RunAbort.
     */
    void applySoftFaults(CoreId c, CoreId home, LineAddr line,
                         L2Cache::Entry entry, Cycle t, Cycle &corr,
                         Cycle &scrub);

    /** Evict an L2 line: back-invalidate holders, write back. */
    void l2Evict(CoreId home, L2Cache::Entry victim, Cycle t);

    /** R-NUCA private->shared re-homing flush (§3.1). */
    void flushPage(CoreId old_home, PageAddr page, Cycle t);

    ProtocolContext ctx_;
    L1Controller &l1_;
    std::unique_ptr<LocalityClassifier> classifier_;
    const std::uint32_t overflowLimit_; //!< overflowLimit(cfg)

    /**
     * Reusable target-list scratch of invalidateHolders, so the
     * snapshot survives holder-set mutation. Steady state is
     * allocation-free: the inline HolderVec capacity covers typical
     * sharer sets, and a spilled copy reuses the spill buffer.
     */
    HolderVec invalTargets_;
    /** Reusable per-tile broadcast arrival buffer (sized numCores). */
    std::vector<Cycle> bcastArrivals_;
};

/** Protocol names, in table order: {"lacc", "fullmap"}. */
const std::vector<std::string> &protocolNames();

/** Name of the directory organization @p cfg selects. */
const char *protocolNameFor(const SystemConfig &cfg);

/**
 * Reconfigure @p cfg to select the named protocol (harness sweeps by
 * name). fatal() on an unknown name, listing the valid ones.
 */
void applyProtocolName(SystemConfig &cfg, const std::string &name);

} // namespace lacc

#endif // LACC_PROTOCOL_PROTOCOL_HH
