/**
 * @file
 * The whole-system simulator: a tiled multicore running the paper's
 * Locality-Aware Adaptive Coherence (protocol/protocol.hh) on a
 * Private-L1 Shared-L2 (R-NUCA) organization. The directory tracks
 * sharers with ACKwise_p pointers by default; the full-map baseline
 * is selected via SystemConfig::directoryKind.
 *
 * Modeling level mirrors the paper's Graphite setup (§4.1):
 * trace-driven in-order 1-IPC cores with per-core clocks (lax
 * synchronization), analytical interconnect timing with link
 * contention (net/factory.hh — 2-D mesh by default),
 * per-line transaction serialization at the directory, and functional
 * data movement through the protocol (values really travel via L1
 * copies, word accesses, write-backs, and DRAM, and can be checked
 * against a reference memory).
 *
 * Multicore itself is orchestration only: per-core clocks and the
 * event loop, workload stepping (including the ifetch walker),
 * barrier/lock synchronization, warm-up stats resets, and functional
 * checking. The coherence state machine — miss transactions,
 * invalidation fan-out, write-backs, L1/L2 fills and evictions, the
 * remote-word path — lives in the protocol layer's L1Controller and
 * DirectoryController, which this class owns.
 *
 * Directory transactions execute atomically in simulated-time order:
 * protocol state updates are instantaneous at transaction processing
 * time while all message latencies and energies are accounted, which
 * sidesteps transient-state races exactly the way cycle-approximate
 * simulators do.
 */

#ifndef LACC_SYSTEM_MULTICORE_HH
#define LACC_SYSTEM_MULTICORE_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/classifier.hh"
#include "dram/dram.hh"
#include "energy/model.hh"
#include "fault/injector.hh"
#include "net/factory.hh"
#include "protocol/messages.hh"
#include "protocol/protocol.hh"
#include "rnuca/page_table.hh"
#include "rnuca/placement.hh"
#include "sim/addr_map.hh"
#include "sim/config.hh"
#include "sim/functional.hh"
#include "sim/stats.hh"
#include "system/event_queue.hh"
#include "system/tile.hh"
#include "workload/sync.hh"
#include "workload/workload.hh"

namespace lacc {

/** The simulated multicore system; see file header. */
class Multicore
{
  public:
    explicit Multicore(const SystemConfig &cfg);

    /**
     * Enable/disable functional read checking against the reference
     * memory (default on; benches disable it for speed — data still
     * moves through the protocol either way).
     */
    void setFunctionalChecks(bool on) { mem_.setChecks(on); }

    /**
     * Run @p workload to completion and return the collected
     * statistics. The workload's core count must match the
     * configuration.
     *
     * Throws RunAbort (sim/abort.hh) when the watchdog deadline
     * expires mid-run or an armed fault plan hits an unrecoverable
     * condition; the system is *not* reusable afterwards (run() is
     * single-use either way).
     */
    const SystemStats &run(Workload &workload);

    /**
     * Arm the wall-clock watchdog: a run exceeding @p ms milliseconds
     * aborts with RunAbort(Timeout) instead of spinning forever (the
     * event loop polls it cooperatively). @p ms <= 0 disarms (the
     * default).
     */
    void setTimeoutMs(double ms) { timeoutMs_ = ms; }

    /** Statistics of the last (or in-progress) run. */
    const SystemStats &stats() const { return stats_; }

    /** The configuration this system was built with. */
    const SystemConfig &config() const { return cfg_; }

    /** Functional mismatches observed (must be 0 after a run). */
    std::uint64_t functionalErrors() const { return mem_.errors(); }

    // ---- Test / inspection hooks --------------------------------------
    /** Core @p c's tile: its L1s, L2 slice + directory, and clock. */
    Tile &tile(CoreId c) { return *tiles_[c]; }
    const Tile &tile(CoreId c) const { return *tiles_[c]; }
    /** The interconnect model (link utilization inspection). */
    NetworkModel &network() { return *network_; }
    /** R-NUCA page classification state (first-touch records). */
    const PageTable &pageTable() const { return pageTable_; }
    /** R-NUCA line-to-home-slice placement policy. */
    const Placement &placement() const { return placement_; }
    /** The home-slice side of the protocol (homeOf, the classifier). */
    const DirectoryController &directory() const { return dir_; }
    /** The system-wide locality classifier policy object. */
    LocalityClassifier &classifier() { return dir_.classifier(); }
    /** The DRAM model behind the memory controllers. */
    DramModel &dram() { return dram_; }
    /** The functional reference memory (verification oracle). */
    const FunctionalMemory &functionalMemory() const { return mem_; }
    /** The armed fault injector, or null under FaultPlan none. */
    FaultInjector *faultInjector() { return fault_.get(); }
    /** The whole-system energy tallies. */
    const EnergyModel &energy() const { return energy_; }

    /**
     * Test hook: perform one data access (or, with @p is_ifetch, one
     * instruction fetch) on @p core at its current local time (no
     * workload needed). The verification layer's stepwise replay and
     * state enumerator (src/verify/) are built on this. @return the
     * completion time.
     */
    Cycle testAccess(CoreId core, Addr addr, bool is_write,
                     bool is_ifetch = false);

    /**
     * Snapshot restore: make this system an exact copy of @p o, built
     * from an equal SystemConfig (fatal() otherwise), so that every
     * later access behaves as it would on @p o. Neither system may
     * have run(), so both event queues are idle and the queue needs
     * no copy. The state enumerator (verify/enumerate.hh) explores
     * each successor this way instead of rebuilding and replaying from
     * reset.
     *
     * Copied: per tile the caches, miss tracker, clock, status,
     * injected ops, ifetch walker and stats; the network's link state,
     * per-link loads and stats; DRAM, the page
     * table, energy tallies, the functional reference memory and its
     * checking mode, SystemStats; barrier and lock state; and the
     * fault counters when a plan is armed. Not copied: the watchdog
     * setting, the (idle) event queue, and controller scratch that
     * every use overwrites.
     * Cost scales with occupied state, not with pre-sized capacity: a
     * cache visits only slots valid on either side (an empty pair is
     * O(1)), a flat map of equal capacity copies only cells occupied
     * on either side, and an empty pending-op queue on both sides is
     * skipped.
     *
     * Restore contract: a new piece of mutable simulation state must
     * join restoreFrom. The restore-equivalence test
     * (tests/test_restore.cc) compares restore-then-access against a
     * fresh replay and catches what is left out.
     */
    void restoreFrom(const Multicore &o);

  private:
    // ---- Event loop -----------------------------------------------------
    void step(CoreId c, const MemOp &op);
    /** Core @p c (its tile clock already set) becomes runnable at @p t. */
    void schedule(CoreId c, Cycle t) { queue_.schedule(c, t); }

    /**
     * Cheap cooperative watchdog poll for the event loop: samples the
     * wall clock once every 1024 calls; latches once expired.
     */
    bool
    watchdogExpired()
    {
        if (timeoutMs_ <= 0.0)
            return false;
        if (watchdogFired_)
            return true;
        if ((++watchdogPoll_ & 0x3FFu) != 0)
            return false;
        if (std::chrono::steady_clock::now() >= watchdogDeadline_)
            watchdogFired_ = true;
        return watchdogFired_;
    }

    void finalizeStats(Workload &workload);

    /**
     * Warm-up boundary (Workload::warmupBarriers): zero all statistics
     * while keeping caches, directories, page table, and link state
     * warm. Called at a barrier release, when every core's clock
     * equals @p t, so the per-core breakdown invariants restart
     * cleanly.
     */
    void resetStatsForMeasurement(Cycle t);

    /** Advance the ifetch walker by @p n instructions. */
    void advanceInstructions(CoreId c, std::uint64_t n,
                             const Workload &workload);

    // ---- Synchronization -------------------------------------------------
    void handleBarrier(CoreId c, Workload &workload);
    void handleLockAcquire(CoreId c, std::uint32_t id,
                           Workload &workload);
    void handleLockRelease(CoreId c, std::uint32_t id,
                           Workload &workload);

    /** The controllers' view of this system (built before them). */
    ProtocolContext protocolContext();

    SystemConfig cfg_;
    AddressMap addr_;

    EnergyModel energy_;
    /** Factory-built interconnect (SystemConfig::networkKind). */
    std::unique_ptr<NetworkModel> network_;
    MessageTransport net_;
    DramModel dram_;
    PageTable pageTable_;
    Placement placement_;

    std::vector<std::unique_ptr<Tile>> tiles_;
    SystemStats stats_;

    // Functional reference memory (word granularity).
    FunctionalMemory mem_;

    /**
     * Armed fault injector (null under FaultPlan none). Declared
     * before the controllers: their ProtocolContext copies its
     * pointer at construction.
     */
    std::unique_ptr<FaultInjector> fault_;

    /** The coherence controllers, wired to each other by reference. */
    L1Controller l1_;
    DirectoryController dir_;

    // Wall-clock watchdog (setTimeoutMs / watchdogExpired).
    double timeoutMs_ = 0.0;
    std::chrono::steady_clock::time_point watchdogDeadline_;
    std::uint32_t watchdogPoll_ = 0;
    bool watchdogFired_ = false;

    // Event loop: the next core to step, and the workload being run
    // (set by run(), which is single-use).
    EventQueue queue_;
    Workload *workload_ = nullptr;

    // Synchronization.
    BarrierState barrier_;
    std::vector<LockState> locks_;
    std::vector<Cycle> barrierWake_; //!< reusable broadcast arrivals
    std::uint32_t barrierReleases_ = 0;
    Cycle statsStart_ = 0; //!< measurement epoch (after warm-up)
};

} // namespace lacc

#endif // LACC_SYSTEM_MULTICORE_HH
