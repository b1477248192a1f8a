/**
 * @file
 * Parameterized synthetic workload generator.
 *
 * Real SPLASH-2 / PARSEC / MI-Bench traces are substituted by
 * deterministic generators composed of six archetypes whose parameters
 * control exactly the properties the paper's protocol reacts to:
 * spatio-temporal utilization per cache line, sharing degree,
 * read/write mix, working-set size, synchronization intensity, and
 * phase behavior. See docs/ARCHITECTURE.md "Workloads" for the
 * substitution, and the `table2` experiment for the benchmark map.
 *
 * Archetypes:
 *  - privateHot:    small per-core working set with high reuse;
 *  - privateStream: per-core cyclic scan with low per-line utilization
 *                   (capacity-miss generator; becomes word accesses
 *                   under the adaptive protocol);
 *  - sharedRO:      read-mostly shared table with optional rare writes
 *                   (invalidation generator; the 1-way ablation's
 *                   pathology) and optional per-group leader asymmetry
 *                   (the Limited_1 mis-seeding cases of §5.3);
 *  - sharedPC:      producer-consumer blocks within core groups, the
 *                   producer rotating each phase (sharing-miss
 *                   generator);
 *  - sharedStream:  all cores scan one giant region (cold/capacity);
 *  - lockRMW:       lock-protected read-modify-write critical sections
 *                   (migratory data; L2-waiting/sharers generator).
 */

#ifndef LACC_WORKLOAD_ARCHETYPES_HH
#define LACC_WORKLOAD_ARCHETYPES_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/rng.hh"
#include "workload/workload.hh"

namespace lacc {

/**
 * Relative weights of the archetypes in a benchmark's access mix.
 * Weights are *access* fractions: the generator divides them by the
 * archetype's expected burst length when rolling so that, e.g., a 0.4
 * privateStream weight yields ~40% of memory accesses regardless of
 * the per-line utilization parameters.
 */
struct ArchetypeWeights
{
    double privateHot = 0.0;
    double privateStream = 0.0;
    double sharedRO = 0.0;
    double sharedPC = 0.0;
    double sharedStream = 0.0;
    double lockRMW = 0.0;

    double
    sum() const
    {
        return privateHot + privateStream + sharedRO + sharedPC +
               sharedStream + lockRMW;
    }
};

/** Full parameter set of a synthetic benchmark. */
struct SyntheticSpec
{
    std::string name = "custom";
    std::uint32_t numCores = 64;

    ArchetypeWeights mix;

    // ---- Region sizes (bytes) -----------------------------------------
    std::uint64_t privateHotBytes = 8ull << 10;
    std::uint64_t privateStreamBytes = 128ull << 10;
    std::uint64_t sharedROBytes = 512ull << 10;
    std::uint64_t sharedPCBytes = 256ull << 10;
    std::uint64_t sharedStreamBytes = 4ull << 20;

    // ---- Per-line utilization (accesses per burst) ---------------------
    std::uint32_t privateHotUtil = 8;
    std::uint32_t privateStreamUtil = 2;
    std::uint32_t sharedROUtil = 2;
    std::uint32_t sharedROLeaderUtil = 0; //!< 0 = same as sharedROUtil
    std::uint32_t pcWriteBurst = 4;
    std::uint32_t pcReadBurst = 2;
    std::uint32_t sharedStreamUtil = 1;

    // ---- Sharing structure ----------------------------------------------
    std::uint32_t sharingDegree = 4;  //!< cores per RO/PC group
    std::uint32_t pcBlockLines = 8;   //!< lines per producer-consumer block

    // ---- Writes -----------------------------------------------------------
    double privateWriteFrac = 0.3;
    double roWriteFrac = 0.0;     //!< probability an RO burst is a write
    /**
     * Restrict RO writes to odd phases ("update frames"): write-heavy
     * phases demote unlucky readers, and the following read-only
     * phases reward protocols that can re-promote them (the §5.4
     * Adapt1-way pathology, e.g. bodytrack's per-frame model update).
     */
    bool roWriteOddPhasesOnly = false;
    double streamWriteFrac = 0.0; //!< write fraction in stream scans

    // ---- Synchronization ---------------------------------------------------
    std::uint32_t numLocks = 16;
    std::uint32_t csLines = 2;   //!< lines touched (RMW) per section

    // ---- Pacing / phases -----------------------------------------------------
    std::uint32_t computePerMemop = 2; //!< mean compute cycles per access
    std::uint32_t opsPerPhase = 3000;  //!< memory accesses between barriers
    std::uint32_t numPhases = 4;
    bool phaseShift = false; //!< swap hot/stream private regions per phase

    std::uint32_t iFootprintLines = 24;
    std::uint64_t seed = 42;

    /**
     * Leading phases excluded from measurement (statistics reset at
     * the phase barrier; see Workload::warmupBarriers). Must be less
     * than numPhases.
     */
    std::uint32_t warmupPhases = 1;
};

/** Deterministic synthetic workload built from a SyntheticSpec. */
class SyntheticWorkload final : public Workload
{
  public:
    SyntheticWorkload(const SyntheticSpec &spec, const SystemConfig &cfg);

    const std::string &name() const override { return spec_.name; }
    std::uint32_t numCores() const override { return spec_.numCores; }
    std::uint32_t numLocks() const override { return spec_.numLocks; }
    MemOp next(CoreId core) override;

    std::uint32_t
    iFootprintLines(CoreId) const override
    {
        return spec_.iFootprintLines;
    }

    std::uint64_t footprintBytes() const override
    {
        return footprintBytes_;
    }

    std::uint32_t
    warmupBarriers() const override
    {
        return spec_.numPhases > 1
                   ? std::min(spec_.warmupPhases, spec_.numPhases - 1)
                   : 0;
    }

    /** The spec this workload was built from. */
    const SyntheticSpec &spec() const { return spec_; }

    /** Address of the cache line backing lock @p id. */
    Addr lockAddr(std::uint32_t id) const;

    // ---- Region introspection (tests) ----------------------------------
    Addr privateHotBase(CoreId core, std::uint32_t phase) const;
    Addr privateStreamBase(CoreId core, std::uint32_t phase) const;
    Addr sharedROBase() const { return sharedROBase_; }
    Addr sharedPCBase() const { return sharedPCBase_; }
    Addr sharedStreamBase() const { return sharedStreamBase_; }

  private:
    /** Archetype identifiers for the weighted roll. */
    enum class Arch : std::uint8_t {
        PrivateHot,
        PrivateStream,
        SharedRO,
        SharedPC,
        SharedStream,
        LockRMW,
    };

    /** Per-core generator state. */
    struct CoreGen
    {
        Rng rng{0};
        std::uint32_t phase = 0;
        std::uint64_t opsInPhase = 0;
        bool done = false;
        bool computePending = true; //!< emit compute before next access

        // Active access burst.
        Addr burstAddr = 0;
        std::uint32_t burstLeft = 0;
        bool burstIsWrite = false;

        // Critical-section state machine.
        enum class CsState : std::uint8_t {
            None,
            Body,
            Release,
        } cs = CsState::None;
        std::uint32_t csLock = 0;
        std::uint32_t csLineIdx = 0;  //!< next CS line
        bool csWritePending = false;  //!< read done, write next
        Addr csBase = 0;

        // Streaming cursors (line indices).
        std::uint64_t privStreamCursor = 0;
        std::uint64_t sharedStreamCursor = 0;

        // Warm-up coverage sweep position (phase 0 only).
        std::size_t sweepIdx = 0;
        std::uint32_t sweepRep = 0; //!< repeats within the current line
    };

    MemOp startBurst(CoreGen &g, Addr line_base, std::uint32_t util,
                     bool is_write);
    MemOp continueBurst(CoreGen &g);
    MemOp chooseAccess(CoreId core, CoreGen &g);

    /** Leader core of @p core's sharing group. */
    CoreId groupLeader(CoreId core) const;

    SyntheticSpec spec_;
    std::uint32_t lineSize_;
    std::uint32_t sweepTouches_; //!< accesses per line in the sweep
    ArchetypeWeights choiceW_; //!< access weights / expected burst
    double wSum_;              //!< sum of choice weights

    Addr sharedROBase_ = 0;
    Addr sharedPCBase_ = 0;
    Addr sharedStreamBase_ = 0;
    Addr lockBase_ = 0;
    Addr csBase_ = 0;
    std::uint64_t footprintBytes_ = 0; //!< laid-out data region size
    std::vector<Addr> privateA_; //!< per-core hot region
    std::vector<Addr> privateB_; //!< per-core stream region

    /**
     * Per-core warm-up sweep: one read per footprint line, emitted
     * (uncounted) at the start of phase 0 so cold misses and the
     * resulting DRAM burst land in the warm-up epoch, not in the
     * measured phases. Shared chunks are swept by two neighboring
     * cores so R-NUCA settles their pages during warm-up.
     */
    std::vector<std::vector<Addr>> sweep_;

    std::vector<CoreGen> gens_;
};

} // namespace lacc

#endif // LACC_WORKLOAD_ARCHETYPES_HH
