/**
 * @file
 * Dynamic energy model for the memory system (caches + NoC).
 *
 * The paper evaluates dynamic energy only, using McPAT for the caches
 * (with a word-addressable L2 so a word access is cheaper than a line
 * access) and DSENT for the network at the 11 nm node, where links cost
 * more than routers per flit-hop (§4.2, §5.1.1). We embed per-event
 * energies (pJ) with those relationships; the absolute values are
 * calibrated to McPAT/DSENT trends, and only relative magnitudes matter
 * for the normalized results reproduced here.
 *
 * Accounting is count-based: the model tallies integer event counts
 * and converts to picojoules only when a breakdown is requested. That
 * keeps the accumulators exact (no floating-point ordering effects)
 * and lets the sharded execution engine give each worker thread its
 * own count slot — concurrent tallies merge by integer addition, so
 * the reported energy is independent of thread interleaving.
 */

#ifndef LACC_ENERGY_MODEL_HH
#define LACC_ENERGY_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/stats.hh"

namespace lacc {

/** Per-event dynamic energies in picojoules. */
struct EnergyParams
{
    double l1iAccess = 3.0;    //!< L1-I read (tag + data, 16 KB)
    double l1dAccess = 4.5;    //!< L1-D read/write (tag + data, 32 KB)
    double l1Fill = 18.0;      //!< full-line install into an L1
    double l1TagOnly = 0.5;    //!< probe without data movement
    double l2WordAccess = 6.5; //!< word read/write in the L2 slice
    double l2LineAccess = 52.0;//!< full-line read/write in the L2 slice
    double l2TagOnly = 1.2;    //!< L2 tag probe
    double dirAccess = 0.6;    //!< directory entry lookup/update
    double routerFlit = 0.9;   //!< per flit per router traversal
    double linkFlit = 1.7;     //!< per flit per link traversal (> router)

    /** Default 11 nm-flavored parameters. */
    static EnergyParams defaults11nm() { return EnergyParams{}; }
};

/** Integer event tallies; one slot per accounting thread. */
struct EnergyCounts
{
    std::uint64_t l1iAccesses = 0;
    std::uint64_t l1iFills = 0;
    std::uint64_t l1iTagOnly = 0;
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l1dFills = 0;
    std::uint64_t l1dTagOnly = 0;
    std::uint64_t l2Words = 0;
    std::uint64_t l2Lines = 0;
    std::uint64_t l2TagOnly = 0;
    std::uint64_t dirAccesses = 0;
    std::uint64_t routerFlits = 0; //!< flits x routers traversed
    std::uint64_t linkFlits = 0;   //!< flits x links traversed

    EnergyCounts &
    operator+=(const EnergyCounts &o)
    {
        l1iAccesses += o.l1iAccesses;
        l1iFills += o.l1iFills;
        l1iTagOnly += o.l1iTagOnly;
        l1dAccesses += o.l1dAccesses;
        l1dFills += o.l1dFills;
        l1dTagOnly += o.l1dTagOnly;
        l2Words += o.l2Words;
        l2Lines += o.l2Lines;
        l2TagOnly += o.l2TagOnly;
        dirAccesses += o.dirAccesses;
        routerFlits += o.routerFlits;
        linkFlits += o.linkFlits;
        return *this;
    }
};

/**
 * Accumulates dynamic energy by component. One instance per system;
 * all tiles/network share it (the paper reports whole-chip totals).
 *
 * Threading: every add goes to the slot the calling thread is bound
 * to (bindThreadSlot); unbound threads — including the serial engine
 * and the sweep runner's workers — use slot 0. A sharded engine calls
 * setSlots(workers + 1) up front and binds each worker to its own
 * slot, so parallel tallies never race and merge order-free.
 */
class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyParams &params =
                             EnergyParams::defaults11nm())
        : params_(params), slots_(1)
    {}

    const EnergyParams &params() const { return params_; }

    /**
     * Size the per-thread slot table (>= 1; slot 0 is the serial
     * thread's). Not thread-safe: call before workers start tallying.
     */
    void
    setSlots(std::size_t n)
    {
        slots_.resize(n < 1 ? 1 : n);
    }

    /**
     * Bind the calling thread to @p slot for all subsequent adds on
     * any EnergyModel. Out-of-range bindings fall back to slot 0.
     */
    static void bindThreadSlot(std::size_t slot);

    // ---- Cache events -------------------------------------------------
    void addL1iAccess() { cur().l1iAccesses += 1; }

    /** Bulk per-instruction fetch energy (one L1-I access each). */
    void addL1iAccesses(std::uint64_t n) { cur().l1iAccesses += n; }
    void addL1iFill() { cur().l1iFills += 1; }
    void addL1dAccess() { cur().l1dAccesses += 1; }
    void addL1dFill() { cur().l1dFills += 1; }
    void addL1dTagOnly() { cur().l1dTagOnly += 1; }
    void addL1iTagOnly() { cur().l1iTagOnly += 1; }

    void addL2Word() { cur().l2Words += 1; }
    void addL2Line() { cur().l2Lines += 1; }
    void addL2TagOnly() { cur().l2TagOnly += 1; }

    void addDirAccess() { cur().dirAccesses += 1; }

    // ---- Network events ------------------------------------------------
    /** @param flit_routers flits x routers traversed. */
    void addRouter(std::uint64_t flit_routers)
    {
        cur().routerFlits += flit_routers;
    }

    /** @param flit_links flits x links traversed. */
    void addLink(std::uint64_t flit_links)
    {
        cur().linkFlits += flit_links;
    }

    /** Merged event counts across all slots. */
    EnergyCounts counts() const;

    /** Breakdown in pJ (counts x per-event params), all slots merged. */
    EnergyBreakdown breakdown() const;

    /** Copy @p o's tallies, every slot (Multicore::restoreFrom). */
    void restoreFrom(const EnergyModel &o) { slots_ = o.slots_; }

    /** Reset all accumulators (every slot). */
    void
    reset()
    {
        for (auto &s : slots_)
            s = EnergyCounts{};
    }

  private:
    EnergyCounts &cur();

    EnergyParams params_;
    std::vector<EnergyCounts> slots_;
};

} // namespace lacc

#endif // LACC_ENERGY_MODEL_HH
