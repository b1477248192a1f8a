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
 * and converts to picojoules only when a breakdown is requested, which
 * keeps the accumulators exact (no floating-point ordering effects).
 */

#ifndef LACC_ENERGY_MODEL_HH
#define LACC_ENERGY_MODEL_HH

#include <cstdint>

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

/** Integer event tallies. */
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
};

/**
 * Accumulates dynamic energy by component. One instance per system;
 * all tiles/network share it (the paper reports whole-chip totals).
 */
class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyParams &params =
                             EnergyParams::defaults11nm())
        : params_(params)
    {}

    const EnergyParams &params() const { return params_; }

    // ---- Cache events -------------------------------------------------
    void addL1iAccess() { counts_.l1iAccesses += 1; }

    /** Bulk per-instruction fetch energy (one L1-I access each). */
    void addL1iAccesses(std::uint64_t n) { counts_.l1iAccesses += n; }
    void addL1iFill() { counts_.l1iFills += 1; }
    void addL1dAccess() { counts_.l1dAccesses += 1; }
    void addL1dFill() { counts_.l1dFills += 1; }
    void addL1dTagOnly() { counts_.l1dTagOnly += 1; }
    void addL1iTagOnly() { counts_.l1iTagOnly += 1; }

    void addL2Word() { counts_.l2Words += 1; }
    void addL2Line() { counts_.l2Lines += 1; }
    void addL2TagOnly() { counts_.l2TagOnly += 1; }

    void addDirAccess() { counts_.dirAccesses += 1; }

    // ---- Network events ------------------------------------------------
    /** @param flit_routers flits x routers traversed. */
    void addRouter(std::uint64_t flit_routers)
    {
        counts_.routerFlits += flit_routers;
    }

    /** @param flit_links flits x links traversed. */
    void addLink(std::uint64_t flit_links)
    {
        counts_.linkFlits += flit_links;
    }

    /** The event counts so far. */
    const EnergyCounts &counts() const { return counts_; }

    /** Breakdown in pJ (counts x per-event params). */
    EnergyBreakdown breakdown() const;

    /** Copy @p o's tallies (Multicore::restoreFrom). */
    void restoreFrom(const EnergyModel &o) { counts_ = o.counts_; }

    /** Reset all accumulators. */
    void reset() { counts_ = EnergyCounts{}; }

  private:
    EnergyParams params_;
    EnergyCounts counts_;
};

} // namespace lacc

#endif // LACC_ENERGY_MODEL_HH
