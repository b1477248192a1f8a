#include "trace.hh"

#include <algorithm>
#include <limits>

#include "system/multicore.hh"

namespace lacc {
namespace perf {

namespace {

std::uint64_t
toNs(std::chrono::steady_clock::duration d)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

std::uint32_t
clampNs(std::uint64_t ns)
{
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(
        ns, std::numeric_limits<std::uint32_t>::max()));
}

} // namespace

const char *
stepClassName(StepClass c)
{
    static const char *const kNames[kNumStepClasses] = {
        "cache.l1_hit",  "protocol.private_fill", "protocol.remote_word",
        "net.inval",     "dram.fetch",            "net.broadcast",
        "system.compute", "system.sync",          "system.done",
    };
    return kNames[static_cast<std::size_t>(c)];
}

StepCounters
readCounters(Multicore &m)
{
    const ProtocolStats &p = m.stats().protocol;
    StepCounters s;
    s.broadcasts = m.network().stats().broadcasts;
    s.invalidations = p.invalidationsSent;
    s.dramFetches = p.dramFetches;
    s.remoteWords = p.remoteReads + p.remoteWrites;
    s.privateFills =
        p.privateReadGrants + p.privateWriteGrants + p.upgradeGrants;
    return s;
}

std::uint64_t
counterDelta(std::uint64_t before, std::uint64_t after)
{
    return after >= before ? after - before : after;
}

StepClass
classifyStep(MemOp::Kind kind, const StepCounters &before,
             const StepCounters &after)
{
    if (counterDelta(before.broadcasts, after.broadcasts) != 0)
        return StepClass::Broadcast;
    if (counterDelta(before.invalidations, after.invalidations) != 0)
        return StepClass::Inval;
    if (counterDelta(before.dramFetches, after.dramFetches) != 0)
        return StepClass::Dram;
    if (counterDelta(before.remoteWords, after.remoteWords) != 0)
        return StepClass::RemoteWord;
    if (counterDelta(before.privateFills, after.privateFills) != 0)
        return StepClass::PrivateFill;
    switch (kind) {
      case MemOp::Kind::Compute:
        return StepClass::Compute;
      case MemOp::Kind::Barrier:
      case MemOp::Kind::LockAcquire:
      case MemOp::Kind::LockRelease:
        return StepClass::Sync;
      case MemOp::Kind::Done:
        return StepClass::Done;
      case MemOp::Kind::Read:
      case MemOp::Kind::Write:
      case MemOp::Kind::IFetch:
        break;
    }
    return StepClass::L1Hit;
}

void
StepLog::open(MemOp::Kind kind, const StepCounters &before)
{
    kind_ = kind;
    before_ = before;
    open_ = true;
}

void
StepLog::close(const StepCounters &after, std::uint64_t ns)
{
    if (!open_)
        return;
    open_ = false;
    const StepClass c = classifyStep(kind_, before_, after);
    samples_[static_cast<std::size_t>(c)].push_back(clampNs(ns));
    ++steps_;
    totalNs_ += ns;
}

StepTracer::StepTracer(Workload &inner, Multicore &system)
    : inner_(inner), system_(system)
{}

MemOp
StepTracer::next(CoreId core)
{
    const Clock::time_point t0 = Clock::now();
    const MemOp op = inner_.next(core);
    const Clock::time_point t1 = Clock::now();

    const StepCounters now = readCounters(system_);
    log_.close(now, toNs(t0 - stepStart_));
    const std::uint64_t next_ns = toNs(t1 - t0);
    nextNs_.push_back(clampNs(next_ns));
    nextTotalNs_ += next_ns;
    log_.open(op.kind, now);
    // The bookkeeping above is tracer overhead: the step starts here.
    stepStart_ = Clock::now();
    return op;
}

void
StepTracer::finish()
{
    log_.close(readCounters(system_), toNs(Clock::now() - stepStart_));
}

std::uint64_t
StepTracer::attributedNs() const
{
    return log_.totalNs() + nextTotalNs_;
}

} // namespace perf
} // namespace lacc
