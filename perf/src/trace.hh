/**
 * @file
 * Outside-in step tracer: per-step host time of Multicore::run,
 * attributed to simulator layers without touching the library.
 *
 * StepTracer is a forwarding Workload. The serial engine calls
 * Workload::next once per step, so the interval from one next() return
 * to the following next() call is the host self time of the step just
 * issued. Each step is put into exactly one class: by the public
 * counters it moved (Multicore::stats().protocol, network().stats()),
 * with the precedence broadcast > inval > dram > remote_word >
 * private_fill, and when it moved none, by its op kind (compute, sync,
 * done, else l1_hit). So a barrier release, which broadcasts, is a
 * net.broadcast step, and a Compute step whose ifetch walker missed is
 * charged to the layer that served the miss. One class per step makes
 * the class self times add up.
 */

#ifndef LACC_PERF_TRACE_HH
#define LACC_PERF_TRACE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "workload/workload.hh"

namespace lacc {

class Multicore;

namespace perf {

/** Step classes, named after the src/ module doing most of the work. */
enum class StepClass : std::uint8_t {
    L1Hit,       //!< access that moved no counter: served by the L1
    PrivateFill, //!< directory handed out a line copy (or upgrade)
    RemoteWord,  //!< word access at the L2 home
    Inval,       //!< unicast invalidations sent
    Dram,        //!< off-chip fetch
    Broadcast,   //!< network broadcast (ACKwise overflow, barrier release)
    Compute,     //!< Compute op, including ifetch-walker hits
    Sync,        //!< Barrier / LockAcquire / LockRelease moving no counter
    Done,        //!< a core's end-of-stream marker
    NumClasses,
};

constexpr std::size_t kNumStepClasses =
    static_cast<std::size_t>(StepClass::NumClasses);

/** Metric-name stem of a class, e.g. "cache.l1_hit". */
const char *stepClassName(StepClass c);

/** The public counters whose movement classifies a step. */
struct StepCounters
{
    std::uint64_t broadcasts = 0;    //!< network().stats().broadcasts
    std::uint64_t invalidations = 0; //!< protocol.invalidationsSent
    std::uint64_t dramFetches = 0;   //!< protocol.dramFetches
    std::uint64_t remoteWords = 0;   //!< protocol.remoteReads + Writes
    std::uint64_t privateFills = 0;  //!< private read/write + upgrade grants
};

/** Snapshot @p m's live counters. */
StepCounters readCounters(Multicore &m);

/**
 * Increase of a counter over one step. The warm-up barrier zeroes every
 * counter (Multicore's measurement reset), so a counter that went down
 * was reset during the step: its new value is the increase since then.
 */
std::uint64_t counterDelta(std::uint64_t before, std::uint64_t after);

/** The class of a step of @p kind that moved the counters from @p before
 * to @p after; see the file comment for the precedence. */
StepClass classifyStep(MemOp::Kind kind, const StepCounters &before,
                       const StepCounters &after);

/** Host self times of the steps of one run, grouped by class. */
class StepLog
{
  public:
    /** Begin a step of @p kind; @p before is the counter state now. */
    void open(MemOp::Kind kind, const StepCounters &before);

    /** End the open step (if any), charging it @p ns host nanoseconds. */
    void close(const StepCounters &after, std::uint64_t ns);

    /** Nanosecond samples of class @p c, in step order. */
    const std::vector<std::uint32_t> &samples(StepClass c) const
    {
        return samples_[static_cast<std::size_t>(c)];
    }

    /** Steps closed so far. */
    std::uint64_t steps() const { return steps_; }

    /** Sum of all closed steps' self time, in nanoseconds. */
    std::uint64_t totalNs() const { return totalNs_; }

  private:
    std::array<std::vector<std::uint32_t>, kNumStepClasses> samples_;
    StepCounters before_;
    MemOp::Kind kind_ = MemOp::Kind::Done;
    bool open_ = false;
    std::uint64_t steps_ = 0;
    std::uint64_t totalNs_ = 0;
};

/**
 * Forwarding workload that times every step of a serial-engine run of
 * @p system. Call finish() once Multicore::run has returned.
 */
class StepTracer final : public Workload
{
  public:
    StepTracer(Workload &inner, Multicore &system);

    const std::string &name() const override { return inner_.name(); }
    std::uint32_t numCores() const override { return inner_.numCores(); }
    std::uint32_t numLocks() const override { return inner_.numLocks(); }
    std::uint32_t iFootprintLines(CoreId c) const override
    {
        return inner_.iFootprintLines(c);
    }
    std::uint64_t footprintBytes() const override
    {
        return inner_.footprintBytes();
    }
    Addr lockAddr(std::uint32_t id) const override
    {
        return inner_.lockAddr(id);
    }
    Addr codeBase() const override { return inner_.codeBase(); }
    std::uint32_t warmupBarriers() const override
    {
        return inner_.warmupBarriers();
    }

    MemOp next(CoreId core) override;

    /** Close the last step at the current time. */
    void finish();

    /** Per-class step self times. */
    const StepLog &steps() const { return log_; }

    /** Host nanoseconds of each forwarded Workload::next call. */
    const std::vector<std::uint32_t> &nextSamples() const
    {
        return nextNs_;
    }

    /** Nanoseconds covered by step intervals and next() calls. */
    std::uint64_t attributedNs() const;

  private:
    using Clock = std::chrono::steady_clock;

    Workload &inner_;
    Multicore &system_;
    StepLog log_;
    std::vector<std::uint32_t> nextNs_;
    std::uint64_t nextTotalNs_ = 0;
    Clock::time_point stepStart_;
};

} // namespace perf
} // namespace lacc

#endif // LACC_PERF_TRACE_HH
