/**
 * @file
 * Locality classifier interface (Sections 3.2-3.4).
 *
 * The directory keeps, per cache line, a classifier record from which
 * the classifier decides for each core whether it is a *private*
 * sharer (handed full line copies) or a *remote* sharer (serviced by
 * word accesses at the shared L2 home). Three implementations are
 * provided:
 *
 *  - CompleteClassifier: mode / remote-utilization / RAT-level for
 *    every core (Fig 6 with RAT levels replacing timestamps, §3.3);
 *  - LimitedClassifier: the Limited_k classifier of §3.4 — k tracked
 *    cores, majority-vote seeding, inactive-sharer replacement;
 *  - TimestampClassifier: the idealized 64-bit last-access timestamp
 *    scheme of §3.2, used as the reference in Fig 12.
 *
 * The protocol variant Adapt1-way (§3.7) is expressed through the
 * `oneWay` flag: remote sharers are never promoted back to private.
 */

#ifndef LACC_CORE_CLASSIFIER_HH
#define LACC_CORE_CLASSIFIER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>

#include "sim/config.hh"
#include "sim/types.hh"

namespace lacc {

/** A core's locality record as peek() reports it (Figs 6-7). */
struct CoreLocality
{
    Mode mode = Mode::Private;    //!< P/R bit
    std::uint32_t remoteUtil = 0; //!< remote utilization counter
    std::uint32_t ratLevel = 0;   //!< current RAT level (§3.3)
    bool active = true;           //!< false once inactive (§3.4)
    Cycle lastAccess = 0;         //!< Timestamp classifier only
};

/**
 * The stored per-core record of the Complete and Limited_k classifiers:
 * remote utilization saturating at RATmax, the RAT level, and the mode
 * and active bits. The field widths bound RATmax and nRATlevels
 * (sim/config.hh, enforced by SystemConfig::validate).
 */
struct CompactLocality
{
    std::uint16_t remoteUtil = 0;
    std::uint8_t ratLevel = 0;
    Mode mode = Mode::Private;
    bool active = true;

    CoreLocality
    view() const
    {
        return {mode, remoteUtil, ratLevel, active, 0};
    }
};
static_assert(kMaxRatMax <= 0xFFFF && kMaxRatLevels <= 0x100,
              "CompactLocality fields must hold every valid config");
static_assert(std::is_trivially_copyable_v<CompactLocality>,
              "records are copied as bytes (snapshot restore)");

/** Context communicated with an L1 miss that reaches the directory. */
struct RemoteAccessContext
{
    Cycle now = 0;
    /**
     * True when the requester's L1 set has an invalid way; enables the
     * short-cut promotion at PCT (§3.3) and trivially passes the
     * Timestamp check (§3.2).
     */
    bool hasInvalidWay = false;
    /**
     * Minimum last-access time over the valid lines of the requester's
     * L1 set (communicated on every miss; Timestamp classifier only).
     */
    Cycle l1MinLastAccess = 0;
};

/** Reason a private copy was removed from an L1. */
enum class RemovalKind : std::uint8_t { Eviction, Invalidation };

/**
 * Classifier policy object; one per system, stateless across lines
 * except for configuration. All per-line state lives in a fixed-size,
 * trivially copyable *record* of recordBytes(cfg) bytes that the
 * directory keeps in each L2 slot's arena (protocol/dir_entry.hh);
 * every per-line call takes the line's record.
 */
class LocalityClassifier
{
  public:
    /**
     * @param cfg      system configuration (PCT, RATmax, nRATlevels, k)
     * @param one_way  Adapt1-way (§3.7): never promote remote sharers
     */
    LocalityClassifier(const SystemConfig &cfg, bool one_way)
        : numCores_(cfg.numCores), pct_(cfg.pct),
          nRatLevels_(cfg.nRatLevels), oneWay_(one_way), cfg_(cfg)
    {}

    virtual ~LocalityClassifier() = default;

    /**
     * Bytes of per-line record the classifier @p cfg selects keeps: a
     * multiple of 8 (records sit 8-byte aligned), 0 for none. Each
     * classifier derives its size from the config.
     */
    static std::uint32_t recordBytes(const SystemConfig &cfg);

    /**
     * Write the record of a line no core has touched yet at @p rec (on
     * every L2 fill; the storage's previous contents are ignored).
     */
    virtual void resetRecord(std::byte *rec) const = 0;

    /**
     * Current mode of @p core for this line, applying any tracking
     * side effects (entry allocation / majority vote in Limited_k).
     * Called once per directory transaction before choosing the
     * private or remote service path.
     */
    virtual Mode classify(std::byte *rec, CoreId core) = 0;

    /**
     * Account one remote (word) access by @p core and decide
     * promotion. On promotion the record is updated to Private mode;
     * the remote utilization is retained so the classification at the
     * next eviction/invalidation covers the whole utilization epoch
     * (§3.2, Evictions and Invalidations).
     *
     * @return true if the core is promoted to a private sharer.
     */
    virtual bool onRemoteAccess(std::byte *rec, CoreId core,
                                const RemoteAccessContext &ctx) = 0;

    /**
     * A write by @p writer resets the remote utilization counters of
     * all remote sharers other than the writer and makes them
     * inactive (§3.2 Write Requests, §3.4).
     */
    virtual void onWriteByOther(std::byte *rec, CoreId writer) = 0;

    /**
     * Classification when @p core's private copy leaves its L1
     * (§3.2): stays private iff privateUtil + remoteUtil >= PCT.
     * Updates RAT level per §3.3 (eviction-demotion raises it,
     * invalidation-demotion leaves it, private classification resets
     * it) and consumes the utilization epoch (remoteUtil := 0).
     *
     * @return the resulting mode for future requests.
     */
    virtual Mode onPrivateRemoval(std::byte *rec, CoreId core,
                                  std::uint32_t private_util,
                                  RemovalKind kind) = 0;

    /**
     * Bookkeeping when a private copy is granted (initial grant or
     * promotion): marks the core an active private sharer (and, for
     * the Timestamp classifier, stamps the access time).
     */
    virtual void onPrivateGrant(std::byte *rec, CoreId core,
                                Cycle now) = 0;

    /** A core's record (tests / reporting); empty when untracked. */
    virtual std::optional<CoreLocality> peek(const std::byte *rec,
                                             CoreId core) const = 0;

    /** True under the Adapt1-way ablation: demotion only (§3.7). */
    bool oneWay() const { return oneWay_; }
    /** The Private Caching Threshold this classifier applies. */
    std::uint32_t pct() const { return pct_; }

    /**
     * Factory: build the classifier selected by the configuration.
     */
    static std::unique_ptr<LocalityClassifier>
    create(const SystemConfig &cfg);

  protected:
    /** Shared RAT/PCT decision used by Complete and Limited (§3.3). */
    bool remoteAccessDecision(CompactLocality &e,
                              const RemoteAccessContext &ctx) const;

    /**
     * Shared removal classification (every record type with mode,
     * remoteUtil, ratLevel and active fields).
     */
    template <typename Record>
    Mode
    removalDecision(Record &e, std::uint32_t private_util,
                    RemovalKind kind) const
    {
        const std::uint64_t total =
            static_cast<std::uint64_t>(private_util) + e.remoteUtil;
        e.active = false;
        e.remoteUtil = 0; // the utilization epoch is consumed either way
        if (total >= pct_) {
            // Stays private; the core re-learns its classification
            // from a fresh RAT level (§3.3).
            e.mode = Mode::Private;
            e.ratLevel = 0;
            return Mode::Private;
        }
        e.mode = Mode::Remote;
        if (kind == RemovalKind::Eviction) {
            // Eviction signals cache-set pressure: raise RAT one level,
            // up to RATmax (§3.3). Invalidations leave the level
            // unchanged (the freed way relieves pressure).
            if (e.ratLevel + 1u < nRatLevels_)
                ++e.ratLevel;
        }
        return Mode::Remote;
    }

    std::uint32_t numCores_;
    std::uint32_t pct_;
    std::uint32_t nRatLevels_;
    bool oneWay_;
    SystemConfig cfg_;
};

} // namespace lacc

#endif // LACC_CORE_CLASSIFIER_HH
