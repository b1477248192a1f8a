/**
 * @file
 * The pluggable coherence-protocol layer.
 *
 * The paper's contribution is a *protocol* — locality-aware adaptive
 * coherence over an ACKwise_p directory — so the protocol state
 * machine lives behind explicit interfaces instead of inline in the
 * system simulator:
 *
 *  - L1Controller: the private-cache side — L1 lookups, fills,
 *    evictions (with the fire-and-forget notice), receipt of
 *    invalidations/downgrades, and forwarding misses (plus the L1-set
 *    hint that feeds the remote-access decision, §3.2/§3.3) to the
 *    directory.
 *  - DirectoryController: the home-slice side — L2Meta/SharerList
 *    ownership, the locality-classifier invocation, miss
 *    transactions, invalidation fan-out, sync write-backs, L2
 *    fills/evictions, and DRAM traffic.
 *  - CoherenceProtocol: a named bundle of both, built by the factory
 *    (protocol/factory.hh) from the SystemConfig.
 *
 * Controllers communicate with the rest of the chip exclusively
 * through Message descriptors (protocol/messages.hh) and the shared
 * ProtocolContext, so an alternative protocol (e.g. DLS-style
 * directoryless or Neat-style low-complexity coherence) can be added
 * without touching system/Multicore.
 */

#ifndef LACC_PROTOCOL_PROTOCOL_HH
#define LACC_PROTOCOL_PROTOCOL_HH

#include <cstdint>
#include <memory>
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
 * Everything a protocol implementation may touch, owned by the
 * enclosing Multicore: configuration and address geometry, the tiles
 * (L1s, L2 slices, per-core stats/clocks), the message transport,
 * the energy/DRAM models, R-NUCA placement state, whole-system
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

/** Private-cache side of the protocol; one instance per system. */
class L1Controller
{
  public:
    virtual ~L1Controller() = default;

    /**
     * One data or instruction access on core @p c at its current
     * local time; advances the core's clock and attributes latency.
     * Misses run the full directory transaction before returning.
     *
     * @param charge_fetch_energy explicit accesses charge L1 energy;
     *        walker-originated ifetches are covered by the bulk
     *        per-instruction fetch energy
     */
    virtual void access(CoreId c, Addr addr, bool is_write,
                        bool is_ifetch,
                        bool charge_fetch_energy = true) = 0;

    /**
     * Ifetch-walker fast path: touch a resident I-line (LRU +
     * utilization + load count). @return false on a miss (the caller
     * then issues a full access with bulk-charged fetch energy).
     */
    virtual bool touchResidentIfetch(CoreId c, Addr addr) = 0;

    /**
     * Install a line into an L1 (private grant), evicting the victim
     * if needed. @p words points at one line of data (the system's
     * wordsPerLine() words), typically the granting L2 entry's arena
     * slice; it is copied into the L1's arena. @return a handle to
     * the installed entry (write grants poke the stored word into it).
     */
    virtual L1Cache::Entry
    fill(CoreId c, bool is_ifetch, LineAddr line,
         const std::uint64_t *words, L1State st, Cycle t) = 0;

    /** Apply an upgrade grant to the requester's S copy (S -> M). */
    virtual void applyUpgrade(CoreId c, bool is_ifetch, LineAddr line,
                              std::uint32_t word, std::uint64_t val) = 0;

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
    virtual DropResult dropCopy(CoreId s, LineAddr line,
                                L2Cache::Entry entry,
                                bool l2_eviction) = 0;

    /**
     * Downgrade the exclusive owner's copy to S (sync write-back),
     * merging M data into @p entry. @return true if the copy was M.
     */
    virtual bool downgradeCopy(CoreId owner, L2Cache::Entry entry) = 0;

    /**
     * Drop the requester's copy of @p line in its *other* L1 (the
     * one the current access did not miss in), if any — after a
     * write, a dual-copy line's second copy is stale. A local action
     * on the requester's own tile: no message, no directory stats,
     * and never Modified (only L1-D copies can be M, and writes miss
     * in L1-D). @return true if a copy was dropped.
     */
    virtual bool dropOtherCopy(CoreId c, bool is_ifetch,
                               LineAddr line) = 0;
};

/** Home-slice (directory) side of the protocol. */
class DirectoryController
{
  public:
    virtual ~DirectoryController() = default;

    /**
     * Run one full miss transaction for core @p c at the line's home:
     * R-NUCA classification, L2 find-or-fill, classifier-driven
     * private-vs-remote service, invalidation / sync-write-back
     * fan-out, the reply message, and completion-time attribution.
     */
    virtual void request(CoreId c, Addr addr, bool is_write,
                         bool is_ifetch, bool upgrade,
                         const L1SetHint &hint) = 0;

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
    virtual void evictionNotice(CoreId home, CoreId c, LineAddr line,
                                bool was_modified,
                                const std::uint64_t *words,
                                std::uint32_t util,
                                bool still_holds) = 0;

    /** Home slice for a line (page table must already classify it). */
    virtual CoreId homeOf(LineAddr line, CoreId requester) const = 0;

    /** The locality classifier this directory consults. */
    virtual LocalityClassifier &classifier() = 0;
    virtual const LocalityClassifier &classifier() const = 0;
};

/** A named, self-contained coherence protocol implementation. */
class CoherenceProtocol
{
  public:
    virtual ~CoherenceProtocol() = default;

    /** Factory key and report name, e.g. "lacc" or "fullmap". */
    virtual const char *name() const = 0;

    virtual L1Controller &l1() = 0;
    virtual DirectoryController &directory() = 0;

    /** Convenience: the directory's locality classifier. */
    LocalityClassifier &classifier() { return directory().classifier(); }
};

} // namespace lacc

#endif // LACC_PROTOCOL_PROTOCOL_HH
