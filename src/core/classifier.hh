/**
 * @file
 * Locality classifier interface (Sections 3.2-3.4).
 *
 * The directory keeps, per cache line, a classifier state object that
 * decides for each core whether it is a *private* sharer (handed full
 * line copies) or a *remote* sharer (serviced by word accesses at the
 * shared L2 home). Three implementations are provided:
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

#include <cstdint>
#include <memory>

#include "sim/config.hh"
#include "sim/types.hh"

namespace lacc {

/** Per-core locality record kept at the directory (Figs 6-7). */
struct CoreLocality
{
    Mode mode = Mode::Private;    //!< P/R bit
    std::uint32_t remoteUtil = 0; //!< remote utilization counter
    std::uint32_t ratLevel = 0;   //!< current RAT level (§3.3)
    bool active = true;           //!< false once inactive (§3.4)
    Cycle lastAccess = 0;         //!< Timestamp classifier only
};

/** Opaque per-line classifier state stored in the directory entry. */
class LineClassifierState
{
  public:
    virtual ~LineClassifierState() = default;
};

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
 * except for configuration. All per-line state lives in the
 * LineClassifierState instances it allocates.
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

    /** Allocate fresh per-line state (on L2 fill). */
    virtual std::unique_ptr<LineClassifierState> makeState() const = 0;

    /**
     * Reset @p state in place to exactly the value a fresh
     * makeState() returns. The refill path (an L2 slot being reused
     * for a new line) calls this instead of re-allocating, so
     * steady-state fills perform no classifier-state heap traffic.
     */
    virtual void resetState(LineClassifierState &state) const = 0;

    /**
     * Overwrite @p dst with @p src's contents; both were allocated by
     * makeState() of this classifier's configuration. The snapshot
     * restore (Multicore::restoreFrom) copies directory entries with
     * this, reusing @p dst's allocation.
     */
    virtual void copyState(LineClassifierState &dst,
                           const LineClassifierState &src) const = 0;

    /**
     * Current mode of @p core for this line, applying any tracking
     * side effects (entry allocation / majority vote in Limited_k).
     * Called once per directory transaction before choosing the
     * private or remote service path.
     */
    virtual Mode classify(LineClassifierState &state, CoreId core) = 0;

    /**
     * Account one remote (word) access by @p core and decide
     * promotion. On promotion the state is updated to Private mode;
     * the remote utilization is retained so the classification at the
     * next eviction/invalidation covers the whole utilization epoch
     * (§3.2, Evictions and Invalidations).
     *
     * @return true if the core is promoted to a private sharer.
     */
    virtual bool onRemoteAccess(LineClassifierState &state, CoreId core,
                                const RemoteAccessContext &ctx) = 0;

    /**
     * A write by @p writer resets the remote utilization counters of
     * all remote sharers other than the writer and makes them
     * inactive (§3.2 Write Requests, §3.4).
     */
    virtual void onWriteByOther(LineClassifierState &state,
                                CoreId writer) = 0;

    /**
     * Classification when @p core's private copy leaves its L1
     * (§3.2): stays private iff privateUtil + remoteUtil >= PCT.
     * Updates RAT level per §3.3 (eviction-demotion raises it,
     * invalidation-demotion leaves it, private classification resets
     * it) and consumes the utilization epoch (remoteUtil := 0).
     *
     * @return the resulting mode for future requests.
     */
    virtual Mode onPrivateRemoval(LineClassifierState &state, CoreId core,
                                  std::uint32_t private_util,
                                  RemovalKind kind) = 0;

    /**
     * Bookkeeping when a private copy is granted (initial grant or
     * promotion): marks the core an active private sharer and stamps
     * the access time.
     */
    virtual void onPrivateGrant(LineClassifierState &state, CoreId core,
                                Cycle now) = 0;

    /** Inspect a core's record (tests / reporting); may be null when
     * untracked. */
    virtual const CoreLocality *
    peek(const LineClassifierState &state, CoreId core) const = 0;

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
    bool remoteAccessDecision(CoreLocality &e,
                              const RemoteAccessContext &ctx) const;

    /** Shared removal classification used by Complete and Limited. */
    Mode removalDecision(CoreLocality &e, std::uint32_t private_util,
                         RemovalKind kind) const;

    std::uint32_t numCores_;
    std::uint32_t pct_;
    std::uint32_t nRatLevels_;
    bool oneWay_;
    SystemConfig cfg_;
};

} // namespace lacc

#endif // LACC_CORE_CLASSIFIER_HH
