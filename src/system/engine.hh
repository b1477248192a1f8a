/**
 * @file
 * Execution engines: the event-loop strategy that drives a Multicore
 * through a workload. The simulator's semantics are defined by the
 * serial engine — a single event loop popping the minimum (time, core)
 * key from an EventQueue — and every other engine must reproduce that
 * interleaving bit-identically; engines trade wall-clock for threads,
 * never results.
 *
 *  - SerialEngine: the reference single-threaded loop (this file).
 *  - ShardedEngine (system/sharded.hh): partitions tiles across a
 *    worker pool and advances in deterministic scan/commit/drain
 *    epochs.
 *
 * Engines are built by a config-keyed factory mirroring the protocol
 * and network factories (one named-registry entry per engine; see
 * sim/named_registry.hh).
 */

#ifndef LACC_SYSTEM_ENGINE_HH
#define LACC_SYSTEM_ENGINE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace lacc {

class CoreTouchObserver;
class Multicore;
class Workload;
struct SystemConfig;

/** Strategy driving one simulation to completion; see file header. */
class ExecutionEngine
{
  public:
    virtual ~ExecutionEngine() = default;

    /** Factory key and report name, e.g. "serial" or "sharded". */
    virtual const char *name() const = 0;

    /** Drive @p workload to completion (single-use, like Multicore). */
    virtual void run(Workload &workload) = 0;

    /**
     * Multicore::schedule landing point: core @p c becomes runnable
     * at time @p t (its tile clock is already set). Called by the
     * step/synchronization handlers while run() is executing them.
     */
    virtual void onSchedule(CoreId c, Cycle t) = 0;

    /**
     * The protocol-layer observer this engine wants wired into the
     * ProtocolContext, or nullptr (the serial engine needs none). The
     * Multicore installs it before constructing the protocol.
     */
    virtual CoreTouchObserver *touchObserver() { return nullptr; }
};

/**
 * The serial engine's event queue: a complete binary min-tree with one
 * leaf per core, sized at construction. A leaf holds its core's packed
 * key (t << 16) | core, or all ones while the core is idle (blocked,
 * finished, or not yet scheduled); every inner node holds the minimum
 * of its children, so the root is the next event and keys order
 * exactly like (time, core) pairs.
 *
 * A core is queued at most once. pop() hands out the root's event but
 * leaves the core's leaf in place for the duration of its step; the
 * leaf is then rewritten exactly once — by the core's own schedule()
 * during the step, or to idle by endStep() if it blocked or finished.
 * Each rewrite updates one leaf and its log2(N) ancestors with
 * branch-free mins.
 */
class EventQueue
{
  public:
    explicit EventQueue(std::uint32_t num_cores);

    /** True when no core is queued. */
    bool empty() const { return tree_[1] == kIdle; }

    /**
     * Core @p c becomes runnable at @p t. panic()s on t >= 2^48 and
     * on a core that is already queued (other than the stepping core's
     * one reschedule).
     */
    void schedule(CoreId c, Cycle t);

    /** Begin the step of the next event; requires !empty(). */
    std::pair<Cycle, CoreId>
    pop()
    {
        const std::uint64_t key = tree_[1];
        stepping_ = static_cast<CoreId>(key & kCoreMask);
        rescheduled_ = false;
        return {key >> kCoreBits, stepping_};
    }

    /** End the popped core's step: idle its leaf unless rescheduled. */
    void
    endStep()
    {
        if (!rescheduled_)
            setLeaf(stepping_, kIdle);
        stepping_ = kInvalidCore;
    }

  private:
    /** Core-id bits of a key; event times must stay below 2^48. */
    static constexpr unsigned kCoreBits = 16;
    static constexpr std::uint64_t kIdle = ~std::uint64_t{0};
    static constexpr std::uint64_t kCoreMask =
        (std::uint64_t{1} << kCoreBits) - 1;

    /** Each ancestor becomes min(the updated child, its sibling). */
    void
    setLeaf(CoreId c, std::uint64_t key)
    {
        std::size_t i = leaves_ + c;
        tree_[i] = key;
        for (; i > 1; i >>= 1) {
            key = std::min(key, tree_[i ^ 1]);
            tree_[i >> 1] = key;
        }
    }

    std::size_t leaves_;             //!< power of two >= core count
    std::vector<std::uint64_t> tree_; //!< [1] root, [leaves_ + c] leaf
    CoreId stepping_ = kInvalidCore; //!< popped core, until endStep()
    bool rescheduled_ = false;       //!< stepping_ already rescheduled
};

/**
 * The reference engine: one EventQueue ordered by (time, core), one op
 * executed per pop. Defines the simulator's interleaving.
 */
class SerialEngine final : public ExecutionEngine
{
  public:
    explicit SerialEngine(Multicore &m);

    const char *name() const override { return "serial"; }
    void run(Workload &workload) override;

    void
    onSchedule(CoreId c, Cycle t) override
    {
        queue_.schedule(c, t);
    }

  private:
    Multicore &m_;
    EventQueue queue_;
};

/**
 * Build the engine selected by @p cfg.engineKind for @p m (which must
 * outlive it). Mirrors makeProtocol/makeNetwork.
 */
std::unique_ptr<ExecutionEngine> makeEngine(const SystemConfig &cfg,
                                            Multicore &m);

/** Registered engine names, in factory order: {"serial", "sharded"}. */
const std::vector<std::string> &engineNames();

/** Name the factory would select for @p cfg. */
const char *engineNameFor(const SystemConfig &cfg);

/**
 * Reconfigure @p cfg to select the named engine (harness sweeps by
 * name). fatal() on an unknown name, listing the valid ones.
 */
void applyEngineName(SystemConfig &cfg, const std::string &name);

} // namespace lacc

#endif // LACC_SYSTEM_ENGINE_HH
