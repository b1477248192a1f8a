/**
 * @file
 * ShardedEngine: deterministic intra-simulation parallelism.
 *
 * Tiles are partitioned statically across a fixed worker pool (core c
 * belongs to worker c % nWorkers) and the simulation advances in
 * epochs, each built from three phases:
 *
 *  1. Scan (parallel, read-only): each worker walks its cores'
 *     upcoming ops — pulling them from the workload into the tile's
 *     pending deque — and classifies each as LOCAL (an L1 hit with
 *     every ifetch-walker crossing resident: touches only the owning
 *     tile) or GLOBAL (a miss, barrier, lock op, or Done: reaches the
 *     directory/network/other tiles). Local ops are annotated with
 *     their exact event-queue key, predicted on a virtual per-core
 *     clock; the scan parks at the first global. L1 hits never change
 *     residency or writability, so a scan stays valid until another
 *     core's transaction touches this tile (see below).
 *
 *  2. Commit (parallel): workers execute their cores' annotated local
 *     ops whose keys order below the horizon H = min over all
 *     non-blocked cores of (frontier key, core). Local ops mutate only
 *     the owning tile (plus per-thread energy slots, per-core
 *     functional-memory values, and the mutex-guarded reference map),
 *     so shards never race; any annotated op that turns out not to be
 *     a pure L1 hit is a scan divergence and panics.
 *
 *  3. Drain (serial): globals execute one at a time in exact
 *     event-queue order — (time, core) lexicographic, matching the
 *     serial engine's EventQueue pops — interleaved with inline
 *     rescans of cores whose scan frontier orders before the next
 *     global. When a transaction reaches into another core's L1
 *     (invalidation / downgrade), the protocol's CoreTouchObserver
 *     hook fires: that core's annotated ops ordering before the
 *     current global are flushed, the rest are discarded, and the core
 *     is marked for rescan. This is the only way cross-tile state
 *     changes, so commits outside the hook remain sound.
 *
 * Because every state mutation happens at the same per-core sequence
 * point and the same simulated time as in the serial engine — and all
 * cross-core interactions are serialized in drain — a sharded run
 * reproduces the serial statistics signature bit-identically for any
 * worker count. Workloads whose next() is not concurrent-safe
 * (Workload::concurrentNextSafe) fall back to an internal
 * SerialEngine, again bit-identical.
 */

#ifndef LACC_SYSTEM_SHARDED_HH
#define LACC_SYSTEM_SHARDED_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "protocol/protocol.hh"
#include "sim/types.hh"
#include "system/engine.hh"

namespace lacc {

class Tile;

/** Sharded-tile epoch engine; see file header. */
class ShardedEngine final : public ExecutionEngine,
                            public CoreTouchObserver
{
  public:
    ShardedEngine(Multicore &m, std::uint32_t threads)
        : m_(m), threads_(threads)
    {}

    const char *name() const override { return "sharded"; }
    CoreTouchObserver *touchObserver() override { return this; }
    void run(Workload &workload) override;
    void onSchedule(CoreId c, Cycle t) override;

    // ---- CoreTouchObserver (fired from the protocol layer) -----------
    void onCrossTileTouch(CoreId c) override;
    void onDirectoryRequest(CoreId c) override;

  private:
    /** Engine-side execution state of one core. */
    enum class St : std::uint8_t {
        NeedsScan, //!< frontier stale; rescan before trusting bound
        Ready,     //!< scanned: annotations and bound are current
        Blocked,   //!< waiting on a barrier/lock; no annotations
        Finished,  //!< executed Done
    };

    /** What the worker pool is currently asked to do. */
    enum class Job : std::uint8_t { Idle, Scan, Commit, Exit };

    /** Per-core scan/commit bookkeeping (owned by the core's shard
     * during parallel phases, by the drain thread otherwise). */
    struct CoreScan
    {
        St st = St::NeedsScan;
        bool parked = false;    //!< Ready: frontier op is a known global
        bool scheduled = false; //!< drain: onSchedule fired during step
        /**
         * Key time of the first op *not* annotated as local: the
         * parked global's key (parked), the virtual clock after an
         * exhausted scan (Ready, not parked), or the tile clock
         * (NeedsScan). Every future event of this core orders at or
         * after (bound, core).
         */
        Cycle bound = 0;
        /** Predicted keys of tl.pending[0 .. keys.size()), the
         * annotated local prefix. */
        std::deque<Cycle> keys;
        // Persisted scan frontier: virtual clock + ifetch walker.
        Cycle vTime = 0;
        std::uint32_t vIfetchLine = 0;
        std::uint32_t vInstrInLine = 0;
    };

    /** Serial pop order of the reference engine: (time, core). */
    static bool
    keyLess(Cycle t1, CoreId c1, Cycle t2, CoreId c2)
    {
        return t1 < t2 || (t1 == t2 && c1 < c2);
    }

    void workerMain(std::uint32_t w);
    void runJob(Job j);

    /** Scan core @p c from its frontier; @return ops examined. */
    std::uint64_t scanCore(CoreId c);
    bool virtualWalk(const Tile &tl, std::uint32_t &vline,
                     std::uint32_t &vinstr, std::uint64_t n,
                     std::uint32_t fp) const;

    void computeH();
    void commitCore(CoreId c);

    /** @return false when the system is quiescent (run complete or
     * deadlocked — Multicore::run diagnoses which). */
    bool drain();
    void executeGlobal(CoreId c);
    /** Commit annotated ops of @p c ordering below (t, tie). */
    void flushAnnotated(CoreId c, Cycle t, CoreId tie);
    /** Execute one already-annotated local op of @p c. */
    void commitOne(CoreId c, CoreScan &cs);

    Multicore &m_;
    const std::uint32_t threads_;

    std::vector<CoreScan> cores_;
    std::unique_ptr<SerialEngine> fallback_; //!< unsafe-workload path

    // Commit horizon, written serially between phases.
    bool haveH_ = false;
    Cycle hTime_ = 0;
    CoreId hCore_ = 0;

    // Drain bookkeeping: the global being executed (touch-flush
    // horizon) and whether a local flush is in progress (a directory
    // request from a flushed op would mean the scan misclassified it).
    Cycle gTime_ = 0;
    CoreId gCore_ = 0;
    bool flushing_ = false;
    bool inParallelPhase_ = false;

    // Worker pool and phase handoff.
    std::uint32_t nWorkers_ = 0;
    std::vector<std::thread> workers_;
    std::mutex mu_;
    std::condition_variable cvWork_;
    std::condition_variable cvDone_;
    std::uint64_t jobEpoch_ = 0;
    std::uint32_t jobRemaining_ = 0;
    Job job_ = Job::Idle;
};

} // namespace lacc

#endif // LACC_SYSTEM_SHARDED_HH
