/**
 * @file
 * System configuration: Table 1 architectural parameters plus the
 * locality-aware protocol knobs (PCT, RATmax, nRATlevels, classifier).
 */

#ifndef LACC_SIM_CONFIG_HH
#define LACC_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace lacc {

/** Which locality classifier the directory uses (Sections 3.2-3.4). */
enum class ClassifierKind : std::uint8_t {
    /** Tracks mode/utilization/RAT-level for every core (Fig 6). */
    Complete,
    /** Tracks k cores; majority vote seeds new cores (Fig 7). */
    Limited,
    /** Ideal 64-bit last-access timestamp check (Section 3.2). */
    Timestamp,
    /** No tracking: every core is always a private sharer (baseline). */
    AlwaysPrivate,
};

/** Protocol variant under evaluation. */
enum class ProtocolKind : std::uint8_t {
    /** Full adaptive protocol with two-way transitions (Adapt2-way). */
    Adaptive,
    /** One-way transitions: demotion only, never promoted (Sec 3.7). */
    AdaptOneWay,
};

/** Directory sharer-tracking organization. */
enum class DirectoryKind : std::uint8_t {
    /** ACKwise_p limited directory with broadcast overflow. */
    Ackwise,
    /** Full-map bit-vector directory. */
    FullMap,
};

/** On-chip interconnect topology (net/factory.hh builds the model). */
enum class NetworkKind : std::uint8_t {
    /** Electrical 2-D mesh, XY routing, native broadcast (Table 1). */
    Mesh,
    /** 2-D torus: wraparound XY, shorter average hops. */
    Torus,
    /** 1-D bidirectional ring: cheap routers, linear diameter. */
    Ring,
    /** Full crossbar: uniform latency, NO native broadcast. */
    Crossbar,
};

/** Fault-injection plan (fault/plan.hh resolves the rates). */
enum class FaultKind : std::uint8_t {
    /** No injection; provably one untaken branch on the hot path. */
    None,
    /** Lossy links: seeded per-link drops/corruptions + retransmit. */
    Links,
    /** SRAM soft errors in L1/L2 data and directory metadata + ECC. */
    Soft,
    /** Links and soft errors together at elevated rates. */
    Storm,
};

/**
 * Ranges the packed per-step state can hold; SystemConfig::validate
 * rejects configurations outside them. Core ids are 16 bits wide with
 * kInvalidCore reserved (also the core field of an event-queue key);
 * a classifier record keeps remote utilization (saturating at RATmax)
 * in 16 bits and the RAT level in 8 (core/classifier.hh).
 */
constexpr std::uint32_t kMaxCores = 0xFFFF;
constexpr std::uint32_t kMaxRatMax = 0xFFFF;
constexpr std::uint32_t kMaxRatLevels = 0x100;

/** Human-readable names for the enums above. */
const char *classifierKindName(ClassifierKind k);
const char *protocolKindName(ProtocolKind k);
const char *directoryKindName(DirectoryKind k);
const char *networkKindName(NetworkKind k);
const char *faultKindName(FaultKind k);

/**
 * All architectural and protocol parameters. Defaults reproduce Table 1
 * and the paper's default protocol configuration (PCT=4, RATmax=16,
 * nRATlevels=2, Limited3 classifier, ACKwise4 directory).
 */
struct SystemConfig
{
    // ---- Chip organization -------------------------------------------
    std::uint32_t numCores = 64;       //!< tiles, row-major on the mesh
    std::uint32_t meshWidth = 8;       //!< mesh columns; rows derived
    std::uint32_t clusterSize = 4;     //!< R-NUCA instruction cluster

    // ---- Memory subsystem (per core) ---------------------------------
    std::uint32_t lineSize = 64;       //!< bytes per cache line
    std::uint32_t pageSize = 4096;     //!< R-NUCA classification grain

    std::uint32_t l1iSizeKB = 16;      //!< L1-I capacity
    std::uint32_t l1iAssoc = 4;
    std::uint32_t l1dSizeKB = 32;      //!< L1-D capacity
    std::uint32_t l1dAssoc = 4;
    std::uint32_t l1Latency = 1;       //!< cycles

    std::uint32_t l2SizeKB = 256;      //!< L2 slice capacity per tile
    std::uint32_t l2Assoc = 8;
    std::uint32_t l2Latency = 7;       //!< cycles (word or line access)

    // ---- Off-chip ------------------------------------------------------
    std::uint32_t numMemControllers = 8;
    double dramBandwidthGBps = 5.0;    //!< per controller
    std::uint32_t dramLatency = 100;   //!< cycles (100 ns @ 1 GHz)

    // ---- Network -------------------------------------------------------
    NetworkKind networkKind = NetworkKind::Mesh;
    std::uint32_t hopLatency = 2;      //!< 1 router + 1 link cycle per hop
    std::uint32_t flitWidthBits = 64;
    std::uint32_t headerFlits = 1;     //!< src, dest, addr, type
    std::uint32_t wordFlits = 1;       //!< 64-bit word payload
    std::uint32_t lineFlits = 8;       //!< 512-bit line payload

    // ---- Directory -----------------------------------------------------
    DirectoryKind directoryKind = DirectoryKind::Ackwise;
    std::uint32_t ackwisePointers = 4; //!< the "p" in ACKwise_p

    // ---- Locality-aware protocol (Section 3) --------------------------
    ProtocolKind protocolKind = ProtocolKind::Adaptive;
    ClassifierKind classifierKind = ClassifierKind::Limited;
    std::uint32_t pct = 4;             //!< Private Caching Threshold
    std::uint32_t ratMax = 16;         //!< max Remote Access Threshold
    std::uint32_t nRatLevels = 2;      //!< RAT levels incl. the PCT level
    std::uint32_t classifierK = 3;     //!< tracked cores in Limited_k
    /**
     * Extension the paper mentions but does not evaluate (§5.3): seed
     * a core's first classification from the majority mode of the
     * cores that already touched the line, Limited_k-style, in the
     * Complete classifier.
     */
    bool completeLearningShortcut = false;
    /**
     * Ablation: disable R-NUCA placement (all data hash-interleaved
     * across slices, no private-at-owner homes, no instruction
     * clustering).
     */
    bool rnucaEnabled = true;

    // ---- Fault injection (fault/plan.hh) ------------------------------
    FaultKind faultKind = FaultKind::None;
    /**
     * Base per-event fault probability; every plan scales its drop/
     * corrupt/soft-error rates linearly from this one knob.
     */
    double faultRate = 1e-3;
    /** Fault-schedule seed, independent of the workload seed. */
    std::uint64_t faultSeed = 0xFA17;

    // ---- Workload / misc ----------------------------------------------
    std::uint64_t seed = 42;           //!< global workload seed

    /** @return mesh rows (numCores / meshWidth). */
    std::uint32_t meshHeight() const { return numCores / meshWidth; }

    /** @return number of lines per L1-D slice set etc. helpers. */
    std::uint32_t l1dSets() const
    {
        return l1dSizeKB * 1024 / lineSize / l1dAssoc;
    }
    std::uint32_t l1iSets() const
    {
        return l1iSizeKB * 1024 / lineSize / l1iAssoc;
    }
    std::uint32_t l2Sets() const
    {
        return l2SizeKB * 1024 / lineSize / l2Assoc;
    }

    /** Words (64-bit) per cache line. */
    std::uint32_t wordsPerLine() const { return lineSize / 8; }

    /**
     * RAT value for a given RAT level (Section 3.3): additively spaced
     * from PCT (level 0) to RATmax in nRatLevels steps.
     *
     * @param level RAT level in [0, nRatLevels).
     * @return the remote-access threshold at that level.
     */
    std::uint32_t ratForLevel(std::uint32_t level) const;

    /** Validate invariants; calls fatal() on bad user configuration. */
    void validate() const;

    /** @return a one-line summary, e.g. for bench headers. */
    std::string summary() const;

    /** Field-by-field equality; a new field must join it (config.cc). */
    bool operator==(const SystemConfig &o) const;
    bool operator!=(const SystemConfig &o) const { return !(*this == o); }
};

} // namespace lacc

#endif // LACC_SIM_CONFIG_HH
