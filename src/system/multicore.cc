#include "system/multicore.hh"

#include <algorithm>
#include <cstdio>

#include "sim/abort.hh"
#include "sim/log.hh"

namespace lacc {

namespace {

const SystemConfig &
validated(const SystemConfig &cfg)
{
    cfg.validate();
    return cfg;
}

} // namespace

Multicore::Multicore(const SystemConfig &cfg)
    : cfg_(validated(cfg)), addr_(cfg_), energy_(),
      network_(makeNetwork(cfg_, energy_)), net_(cfg_, *network_),
      dram_(cfg_),
      // Pre-size the page table for the aggregate L2 footprint in
      // pages (the steady-state hot set R-NUCA classifies).
      pageTable_(static_cast<std::size_t>(cfg_.numCores) *
                 cfg_.l2Sets() * cfg_.l2Assoc /
                 (cfg_.pageSize / cfg_.lineSize)),
      placement_(cfg_),
      // Fault injector before the controllers: the network, the
      // transport, and the directory each hold a pointer (null under
      // FaultPlan none, keeping every hook a single untaken branch).
      fault_(cfg_.faultKind != FaultKind::None
                 ? std::make_unique<FaultInjector>(cfg_)
                 : nullptr),
      l1_(protocolContext(), dir_), dir_(protocolContext(), l1_),
      queue_(cfg_.numCores), barrier_(cfg_.numCores)
{
    tiles_.reserve(cfg_.numCores);
    for (std::uint32_t c = 0; c < cfg_.numCores; ++c)
        tiles_.push_back(std::make_unique<Tile>(static_cast<CoreId>(c),
                                                cfg_));
    stats_.perCore.resize(cfg_.numCores);
    mem_.setCores(cfg_.numCores);
    network_->setFaultInjector(fault_.get());
    net_.setFaultInjector(fault_.get());
}

ProtocolContext
Multicore::protocolContext()
{
    return ProtocolContext{cfg_, addr_, tiles_, net_, energy_, dram_,
                           pageTable_, placement_, stats_, mem_,
                           fault_.get()};
}

const SystemStats &
Multicore::run(Workload &workload)
{
    if (workload_ != nullptr)
        fatal("Multicore::run is single-use; construct a new system");
    if (workload.numCores() != cfg_.numCores)
        fatal("workload wants %u cores, system has %u",
              workload.numCores(), cfg_.numCores);
    workload_ = &workload;
    locks_.assign(std::max<std::uint32_t>(workload.numLocks(), 1),
                  LockState{});
    // Pre-size the reference memory from the workload's data
    // footprint (a no-op when functional checks are off).
    mem_.reserveFootprint(
        static_cast<std::size_t>(workload.footprintBytes() / 8));

    if (timeoutMs_ > 0.0) {
        watchdogPoll_ = 0;
        watchdogFired_ = false;
        watchdogDeadline_ =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double, std::milli>(timeoutMs_));
    }

    // The event loop: one op per pop of the minimum (time, core) key.
    // This order is the simulator's interleaving.
    for (std::uint32_t c = 0; c < cfg_.numCores; ++c)
        schedule(static_cast<CoreId>(c), 0);
    while (!queue_.empty()) {
        if (watchdogExpired())
            break;
        const auto [t, c] = queue_.pop();
        Tile &tl = *tiles_[c];
        if (tl.status != CoreStatus::Runnable)
            panic("scheduled core %u is not runnable", c);
        tl.now = std::max(tl.now, t);
        MemOp op;
        if (!tl.pending.empty()) {
            op = tl.pending.front();
            tl.pending.pop_front();
        } else {
            op = workload.next(c);
        }
        step(c, op);
        queue_.endStep();
    }

    if (watchdogFired_) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "watchdog: run exceeded %g ms", timeoutMs_);
        throw RunAbort(AbortKind::Timeout, buf);
    }

    for (const auto &tp : tiles_) {
        if (tp->status != CoreStatus::Finished) {
            panic("deadlock: core %u ended %s (barrier arrivals %u)",
                  tp->id,
                  tp->status == CoreStatus::BlockedBarrier
                      ? "blocked at barrier"
                      : (tp->status == CoreStatus::BlockedLock
                             ? "blocked on a lock"
                             : "runnable"),
                  barrier_.arrivedCount());
        }
    }

    finalizeStats(workload);
    return stats_;
}

void
Multicore::step(CoreId c, const MemOp &op)
{
    Tile &tl = *tiles_[c];
    switch (op.kind) {
      case MemOp::Kind::Read:
      case MemOp::Kind::Write: {
        const bool is_write = op.kind == MemOp::Kind::Write;
        ++tl.stats.instructions;
        if (is_write)
            ++tl.stats.memWrites;
        else
            ++tl.stats.memReads;
        advanceInstructions(c, 1, *workload_);
        l1_.access(c, op.addr, is_write, false);
        schedule(c, tl.now);
        break;
      }
      case MemOp::Kind::IFetch:
        ++tl.stats.instructions;
        l1_.access(c, op.addr, false, true);
        schedule(c, tl.now);
        break;
      case MemOp::Kind::Compute:
        tl.stats.instructions += op.count;
        tl.stats.latency.compute += op.count;
        tl.now += op.count;
        advanceInstructions(c, op.count, *workload_);
        schedule(c, tl.now);
        break;
      case MemOp::Kind::Barrier:
        ++tl.stats.instructions;
        advanceInstructions(c, 1, *workload_);
        handleBarrier(c, *workload_);
        break;
      case MemOp::Kind::LockAcquire:
        ++tl.stats.instructions;
        advanceInstructions(c, 1, *workload_);
        handleLockAcquire(c, op.lockId, *workload_);
        break;
      case MemOp::Kind::LockRelease:
        ++tl.stats.instructions;
        advanceInstructions(c, 1, *workload_);
        handleLockRelease(c, op.lockId, *workload_);
        break;
      case MemOp::Kind::Done:
        tl.status = CoreStatus::Finished;
        tl.stats.finishTime = tl.now - statsStart_;
        break;
    }
}

void
Multicore::advanceInstructions(CoreId c, std::uint64_t n,
                               const Workload &workload)
{
    Tile &tl = *tiles_[c];
    tl.stats.ifetches += n;
    energy_.addL1iAccesses(n);

    const std::uint32_t fp = workload.iFootprintLines(c);
    if (fp == 0)
        return;

    // 4-byte instructions: lineSize/4 instructions per I-line.
    const std::uint32_t instrs_per_line = cfg_.lineSize / 4;
    std::uint64_t total = tl.instrInLine + n;
    std::uint64_t crossings = total / instrs_per_line;
    tl.instrInLine = static_cast<std::uint32_t>(total % instrs_per_line);

    const Addr code = workload.codeBase();
    while (crossings-- > 0) {
        tl.ifetchLine = (tl.ifetchLine + 1) % fp;
        const Addr addr = code + static_cast<Addr>(tl.ifetchLine) *
                                     cfg_.lineSize;
        // Fast path: a resident I-line costs nothing extra (fetch is
        // pipelined); only misses stall the core.
        if (!l1_.touchResidentIfetch(c, addr))
            l1_.access(c, addr, false, true, false);
    }
}

void
Multicore::handleBarrier(CoreId c, Workload &workload)
{
    // Message-based tree barrier: arrivals are single-flit unicasts to
    // a central tile and the release is one broadcast — barrier cost
    // is network latency, not cache-line ping-pong. (Lock-protected
    // critical sections, where the paper's synchronization effects
    // live, do go through the coherence protocol.)
    Tile &tl = *tiles_[c];
    const CoreId bhome = static_cast<CoreId>(cfg_.numCores / 2);
    Message arrive{MsgKind::BarrierArrive, c, bhome,
                   MsgPayload::None};
    const Cycle t_arr = net_.send(arrive, tl.now);
    tl.stats.latency.synchronization += t_arr - tl.now;
    tl.now = t_arr;

    if (barrier_.arrive(c, t_arr)) {
        const Cycle rel = barrier_.releaseTime();
        // Reusable member scratch: the network broadcast re-assigns
        // it to numCores entries without reallocating.
        std::vector<Cycle> &wake = barrierWake_;
        Message release{MsgKind::BarrierRelease, bhome, bhome,
                        MsgPayload::None};
        net_.broadcast(release, rel, wake);
        if (barrierReleases_ + 1 == workload.warmupBarriers()) {
            // Warm-up boundary: align every core on one clock so the
            // measurement epoch starts with exact per-core breakdown
            // invariants (total() == finishTime).
            const Cycle aligned =
                *std::max_element(wake.begin(), wake.end());
            std::fill(wake.begin(), wake.end(), aligned);
        }
        for (const CoreId w : barrier_.waiters()) {
            Tile &wt = *tiles_[w];
            wt.stats.latency.synchronization +=
                wake[w] - barrier_.arrivalOf(w);
            wt.now = wake[w];
            wt.status = CoreStatus::Runnable;
            schedule(w, wake[w]);
        }
        // The releasing arrival may still have to wait for an earlier-
        // arrived core whose completion time exceeded ours (lax
        // synchronization): charge the residue.
        tl.stats.latency.synchronization += wake[c] - t_arr;
        tl.now = wake[c];
        barrier_.resetGeneration();
        ++barrierReleases_;
        if (barrierReleases_ == workload.warmupBarriers())
            resetStatsForMeasurement(tl.now);
        schedule(c, tl.now);
    } else {
        tl.status = CoreStatus::BlockedBarrier;
    }
}

void
Multicore::resetStatsForMeasurement(Cycle t)
{
    statsStart_ = t;
    for (auto &tp : tiles_)
        tp->stats = CoreStats{};
    stats_.l2 = CacheStats{};
    stats_.protocol = ProtocolStats{};
    stats_.evictionUtil = UtilizationHistogram{};
    stats_.invalidationUtil = UtilizationHistogram{};
    // Links also restart clean: every core resumes on one aligned
    // clock at the boundary, and carrying saturated warm-up bookings
    // into the measured epoch would charge phantom queueing.
    network_->reset();
    energy_.reset();
    // Fault counters are deliberately NOT reset here: the resilience
    // ledger is whole-run. Warm-up traffic is simulated traffic — a
    // soft error or link fault injected during warm-up is recovered
    // (and must be charged) all the same, and wiping the counters at
    // the boundary would open a blind spot in the zero-silent-
    // corruption accounting (a warm-up-epoch silent strike would
    // vanish from the ledger the harness asserts over).
}

void
Multicore::handleLockAcquire(CoreId c, std::uint32_t id,
                             Workload &workload)
{
    if (id >= locks_.size())
        fatal("lock id %u out of range (%zu locks)", id, locks_.size());
    Tile &tl = *tiles_[c];
    l1_.access(c, workload.lockAddr(id), true, false);
    const Cycle t_end = tl.now;

    if (locks_[id].tryAcquire(c)) {
        schedule(c, t_end);
    } else {
        locks_[id].enqueue(c, t_end);
        tl.status = CoreStatus::BlockedLock;
    }
}

void
Multicore::handleLockRelease(CoreId c, std::uint32_t id,
                             Workload &workload)
{
    if (id >= locks_.size())
        fatal("lock id %u out of range (%zu locks)", id, locks_.size());
    Tile &tl = *tiles_[c];
    if (locks_[id].holder() != c)
        fatal("core %u releases lock %u it does not hold", c, id);
    l1_.access(c, workload.lockAddr(id), true, false);
    const Cycle t_end = tl.now;

    LockState::Waiter w{};
    if (locks_[id].release(c, w)) {
        Tile &wt = *tiles_[w.core];
        const Cycle wake = std::max(t_end, w.readyAt);
        wt.stats.latency.synchronization += wake - w.readyAt;
        wt.now = wake;
        wt.status = CoreStatus::Runnable;
        // The handoff transfers the lock line to the new holder.
        wt.pending.push_front(MemOp::read(workload.lockAddr(id)));
        schedule(w.core, wake);
    }
    schedule(c, t_end);
}

Cycle
Multicore::testAccess(CoreId core, Addr addr, bool is_write,
                      bool is_ifetch)
{
    if (is_write && is_ifetch)
        fatal("testAccess: an ifetch cannot be a write");
    l1_.access(core, addr, is_write, is_ifetch);
    return tiles_[core]->now;
}

void
Multicore::restoreFrom(const Multicore &o)
{
    if (&o == this)
        return;
    if (cfg_ != o.cfg_)
        fatal("Multicore::restoreFrom: configurations differ (%s vs %s)",
              cfg_.summary().c_str(), o.cfg_.summary().c_str());
    if (workload_ != nullptr || o.workload_ != nullptr)
        fatal("Multicore::restoreFrom: a system that has run() can be"
              " neither restored nor restored from");
    energy_.restoreFrom(o.energy_);
    network_->restoreFrom(*o.network_);
    dram_.restoreFrom(o.dram_);
    pageTable_.restoreFrom(o.pageTable_);
    for (std::size_t c = 0; c < tiles_.size(); ++c)
        tiles_[c]->restoreFrom(*o.tiles_[c]);
    stats_ = o.stats_;
    mem_.restoreFrom(o.mem_);
    if (fault_)
        fault_->restoreFrom(*o.fault_);
    barrier_ = o.barrier_;
    locks_ = o.locks_;
    barrierReleases_ = o.barrierReleases_;
    statsStart_ = o.statsStart_;
}

void
Multicore::finalizeStats(Workload &workload)
{
    (void)workload;
    for (std::uint32_t c = 0; c < cfg_.numCores; ++c)
        stats_.perCore[c] = tiles_[c]->stats;
    stats_.network = network_->stats();
    stats_.energy = energy_.breakdown();
    if (fault_)
        stats_.faults = fault_->stats();
}

} // namespace lacc
