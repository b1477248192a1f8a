/**
 * @file
 * Statistics containers mirroring the paper's reported metrics.
 *
 * - LatencyBreakdown: the six completion-time components of Fig 9
 *   (Compute, L1Cache-L2Cache, L2Cache-Waiting, L2Cache-Sharers,
 *   L2Cache-OffChip, Synchronization), defined in Section 4.4.
 * - EnergyBreakdown: the six energy components of Fig 8 (L1-I, L1-D,
 *   L2, Directory, Network Router, Network Link).
 * - MissBreakdown: the five miss types of Section 4.4 (Fig 10).
 * - UtilizationHistogram: Figs 1-2 (evictions/invalidations by the
 *   utilization of the victim line).
 *
 * Each plain counter struct lists its fields once, in a static
 * forEachField(f) that calls f("json_key", &S::member) per field.
 * Merging, total(), the JSON blocks (system/report.cc), the
 * statsSignature digest and the Fig 8/9 vectors all derive from that
 * table, so a new counter is one declaration plus one table line.
 */

#ifndef LACC_SIM_STATS_HH
#define LACC_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace lacc {

// Tables list fields in declaration order, which is also the JSON key
// order and the digest order: reordering a table changes the goldens.

/** a += b, field by field. */
template <typename S>
void
addFields(S &a, const S &b)
{
    S::forEachField([&](const char *, auto m) { a.*m += b.*m; });
}

/** Sum of all fields, left to right in table order. */
template <typename T, typename S>
T
sumFields(const S &s)
{
    T sum{};
    S::forEachField([&](const char *, auto m) { sum += s.*m; });
    return sum;
}

/** Completion-time components (cycles); see Section 4.4. */
struct LatencyBreakdown
{
    std::uint64_t compute = 0;        //!< non-memory pipeline cycles
    std::uint64_t l1ToL2 = 0;         //!< miss request/reply + L2 access
    std::uint64_t l2Waiting = 0;      //!< per-line serialization queueing
    std::uint64_t l2Sharers = 0;      //!< invalidation / sync-WB roundtrips
    std::uint64_t offChip = 0;        //!< DRAM access incl. queueing
    std::uint64_t synchronization = 0;//!< barrier / lock wait

    /** Sum of all components. */
    std::uint64_t total() const { return sumFields<std::uint64_t>(*this); }

    LatencyBreakdown &
    operator+=(const LatencyBreakdown &o)
    {
        addFields(*this, o);
        return *this;
    }

    template <typename F>
    static void
    forEachField(F &&f)
    {
        f("compute", &LatencyBreakdown::compute);
        f("l1_to_l2", &LatencyBreakdown::l1ToL2);
        f("l2_waiting", &LatencyBreakdown::l2Waiting);
        f("l2_sharers", &LatencyBreakdown::l2Sharers);
        f("off_chip", &LatencyBreakdown::offChip);
        f("synchronization", &LatencyBreakdown::synchronization);
    }
};

/** Dynamic energy per component (picojoules). */
struct EnergyBreakdown
{
    double l1i = 0.0;
    double l1d = 0.0;
    double l2 = 0.0;
    double directory = 0.0;
    double router = 0.0;
    double link = 0.0;

    /** Total memory-system energy (caches + network, as in the paper). */
    double total() const { return sumFields<double>(*this); }

    template <typename F>
    static void
    forEachField(F &&f)
    {
        f("l1i", &EnergyBreakdown::l1i);
        f("l1d", &EnergyBreakdown::l1d);
        f("l2", &EnergyBreakdown::l2);
        f("directory", &EnergyBreakdown::directory);
        f("router", &EnergyBreakdown::router);
        f("link", &EnergyBreakdown::link);
    }
};

/** Counts of the five L1 miss types of Section 4.4. */
struct MissBreakdown
{
    std::array<std::uint64_t, static_cast<std::size_t>(MissType::NumTypes)>
        counts{};

    void record(MissType t) { ++counts[static_cast<std::size_t>(t)]; }
    std::uint64_t get(MissType t) const
    {
        return counts[static_cast<std::size_t>(t)];
    }
    std::uint64_t total() const;

    MissBreakdown &operator+=(const MissBreakdown &o);
};

/**
 * Histogram of line utilization observed at eviction or invalidation
 * time (Figs 1-2). Utilization is clamped into [1, kMaxUtil].
 */
struct UtilizationHistogram
{
    static constexpr std::uint32_t kMaxUtil = 64;
    std::array<std::uint64_t, kMaxUtil + 1> counts{};

    /** Record one event with the given utilization (>= 0). */
    void record(std::uint64_t utilization);

    /** Total recorded events. */
    std::uint64_t total() const;

    /**
     * Fraction of events in the paper's buckets {1, 2-3, 4-5, 6-7, >=8};
     * bucket index 0..4. Returns 0 for empty histograms.
     */
    double bucketFraction(std::uint32_t bucket) const;

    /** Fraction of events with utilization < u. */
    double fractionBelow(std::uint64_t u) const;

    UtilizationHistogram &operator+=(const UtilizationHistogram &o);
};

/** L1/L2 cache access counters (one instance per cache). */
struct CacheStats
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t loadMisses = 0;
    std::uint64_t storeMisses = 0;
    std::uint64_t evictions = 0;       //!< capacity/conflict victims
    std::uint64_t invalidationsRecv = 0;
    std::uint64_t fills = 0;

    std::uint64_t accesses() const { return loads + stores; }
    std::uint64_t misses() const { return loadMisses + storeMisses; }
    double missRate() const
    {
        const auto a = accesses();
        return a == 0 ? 0.0 : static_cast<double>(misses()) / a;
    }

    CacheStats &
    operator+=(const CacheStats &o)
    {
        addFields(*this, o);
        return *this;
    }

    template <typename F>
    static void
    forEachField(F &&f)
    {
        f("loads", &CacheStats::loads);
        f("stores", &CacheStats::stores);
        f("load_misses", &CacheStats::loadMisses);
        f("store_misses", &CacheStats::storeMisses);
        f("evictions", &CacheStats::evictions);
        f("invalidations_recv", &CacheStats::invalidationsRecv);
        f("fills", &CacheStats::fills);
    }
};

/** NoC traffic counters. */
struct NetworkStats
{
    std::uint64_t unicasts = 0;
    std::uint64_t broadcasts = 0;
    std::uint64_t flitsInjected = 0;   //!< payload+header flits at source
    std::uint64_t flitHops = 0;        //!< flits x links traversed
    std::uint64_t contentionCycles = 0;

    template <typename F>
    static void
    forEachField(F &&f)
    {
        f("unicasts", &NetworkStats::unicasts);
        f("broadcasts", &NetworkStats::broadcasts);
        f("flits_injected", &NetworkStats::flitsInjected);
        f("flit_hops", &NetworkStats::flitHops);
        f("contention_cycles", &NetworkStats::contentionCycles);
    }
};

/**
 * Fault-injection and recovery counters (fault/injector.hh). All zero
 * when FaultPlan none is selected; deliberately excluded from
 * statsSignature() so fault-free golden digests stay bit-identical to
 * the pre-fault ones.
 */
struct FaultStats
{
    std::uint64_t linkDrops = 0;         //!< messages lost in flight
    std::uint64_t linkCorruptions = 0;   //!< messages mangled in flight
    std::uint64_t retransmits = 0;       //!< recovery resends
    std::uint64_t nacks = 0;             //!< CRC-failure NACKs sent
    std::uint64_t softErrors = 0;        //!< bit-flip strikes injected
    std::uint64_t eccCorrected = 0;      //!< SECDED single-bit fixes
    std::uint64_t eccDetected = 0;       //!< SECDED double-bit detects
    std::uint64_t scrubs = 0;            //!< scrub-from-DRAM refetches
    std::uint64_t silentCorruptions = 0; //!< unprotected real bit flips

    /** Any fault activity at all? */
    bool
    any() const
    {
        std::uint64_t bits = 0;
        forEachField([&](const char *, auto m) { bits |= this->*m; });
        return bits != 0;
    }

    template <typename F>
    static void
    forEachField(F &&f)
    {
        f("link_drops", &FaultStats::linkDrops);
        f("link_corruptions", &FaultStats::linkCorruptions);
        f("retransmits", &FaultStats::retransmits);
        f("nacks", &FaultStats::nacks);
        f("soft_errors", &FaultStats::softErrors);
        f("ecc_corrected", &FaultStats::eccCorrected);
        f("ecc_detected", &FaultStats::eccDetected);
        f("scrubs", &FaultStats::scrubs);
        f("silent_corruptions", &FaultStats::silentCorruptions);
    }
};

/** Protocol-level event counters. */
struct ProtocolStats
{
    std::uint64_t privateReadGrants = 0;  //!< line copies handed out (read)
    std::uint64_t privateWriteGrants = 0; //!< line copies handed out (write)
    std::uint64_t upgradeGrants = 0;      //!< S->M without data transfer
    std::uint64_t remoteReads = 0;        //!< word reads at the L2 home
    std::uint64_t remoteWrites = 0;       //!< word writes at the L2 home
    std::uint64_t promotions = 0;         //!< remote -> private
    std::uint64_t demotions = 0;          //!< private -> remote
    std::uint64_t invalidationsSent = 0;  //!< unicast invalidation msgs
    std::uint64_t broadcastInvals = 0;    //!< ACKwise overflow broadcasts
    std::uint64_t syncWritebacks = 0;     //!< owner flushes on demand
    std::uint64_t dirtyWritebacks = 0;    //!< eviction write-backs (L1->L2)
    std::uint64_t l2Evictions = 0;        //!< inclusive back-invalidations
    std::uint64_t rehomeFlushes = 0;      //!< R-NUCA private->shared
    std::uint64_t dramFetches = 0;
    std::uint64_t dramWritebacks = 0;

    template <typename F>
    static void
    forEachField(F &&f)
    {
        f("private_read_grants", &ProtocolStats::privateReadGrants);
        f("private_write_grants", &ProtocolStats::privateWriteGrants);
        f("upgrade_grants", &ProtocolStats::upgradeGrants);
        f("remote_reads", &ProtocolStats::remoteReads);
        f("remote_writes", &ProtocolStats::remoteWrites);
        f("promotions", &ProtocolStats::promotions);
        f("demotions", &ProtocolStats::demotions);
        f("invalidations_sent", &ProtocolStats::invalidationsSent);
        f("broadcast_invals", &ProtocolStats::broadcastInvals);
        f("sync_writebacks", &ProtocolStats::syncWritebacks);
        f("dirty_writebacks", &ProtocolStats::dirtyWritebacks);
        f("l2_evictions", &ProtocolStats::l2Evictions);
        f("rehome_flushes", &ProtocolStats::rehomeFlushes);
        f("dram_fetches", &ProtocolStats::dramFetches);
        f("dram_writebacks", &ProtocolStats::dramWritebacks);
    }
};

/** Per-core statistics. */
struct CoreStats
{
    std::uint64_t instructions = 0;
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    std::uint64_t ifetches = 0;
    Cycle finishTime = 0;

    LatencyBreakdown latency;
    MissBreakdown misses;          //!< L1-D miss taxonomy
    CacheStats l1i;
    CacheStats l1d;

    CoreStats &operator+=(const CoreStats &o);

    /**
     * The four plain counters (the JSON core_totals block). finishTime
     * merges by max, and it and the nested blocks stay explicit.
     */
    template <typename F>
    static void
    forEachField(F &&f)
    {
        f("instructions", &CoreStats::instructions);
        f("mem_reads", &CoreStats::memReads);
        f("mem_writes", &CoreStats::memWrites);
        f("ifetches", &CoreStats::ifetches);
    }
};

/** Whole-system statistics returned by a simulation run. */
struct SystemStats
{
    std::vector<CoreStats> perCore;

    CacheStats l2;                 //!< aggregated over slices
    NetworkStats network;
    ProtocolStats protocol;
    FaultStats faults;             //!< all-zero under FaultPlan none
    EnergyBreakdown energy;
    UtilizationHistogram evictionUtil;      //!< Fig 2
    UtilizationHistogram invalidationUtil;  //!< Fig 1

    /** Parallel-region completion time: max core finish time. */
    Cycle completionTime() const;

    /** Sum of per-core latency breakdowns (for stacked plots). */
    LatencyBreakdown totalLatency() const;

    /** Aggregate L1-D miss taxonomy. */
    MissBreakdown totalMisses() const;

    /** Aggregate L1-D access count. */
    std::uint64_t totalL1dAccesses() const;

    /** Aggregate L1-D miss rate (misses incl. word accesses). */
    double l1dMissRate() const;
};

} // namespace lacc

#endif // LACC_SIM_STATS_HH
