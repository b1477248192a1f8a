// Tests of the benchmark's own machinery: step classification, the
// outside-in tracer and failure accounting.

#include <gtest/gtest.h>

#include "bench.hh"
#include "system/multicore.hh"
#include "system/report.hh"
#include "trace.hh"
#include "workload/trace_file.hh"

using namespace lacc;
using namespace lacc::perf;

namespace {

StepCounters
counters(std::uint64_t bc, std::uint64_t inv, std::uint64_t dram,
         std::uint64_t rw, std::uint64_t pf)
{
    StepCounters s;
    s.broadcasts = bc;
    s.invalidations = inv;
    s.dramFetches = dram;
    s.remoteWords = rw;
    s.privateFills = pf;
    return s;
}

std::size_t
count(const StepLog &log, StepClass c)
{
    return log.samples(c).size();
}

/** A two-core trace with shared writes, a lock and a barrier. */
TraceWorkload
twoCoreTrace()
{
    const Addr a = Addr{1} << 32, b = a + 4096;
    std::vector<std::vector<MemOp>> s(2);
    for (CoreId c = 0; c < 2; ++c) {
        for (int i = 0; i < 40; ++i) {
            s[c].push_back(MemOp::read(a + 64 * (i % 4)));
            s[c].push_back(MemOp::write(b + 64 * ((i + c) % 3)));
            s[c].push_back(MemOp::compute(3));
        }
        s[c].push_back(MemOp::lockAcquire(0));
        s[c].push_back(MemOp::write(a));
        s[c].push_back(MemOp::lockRelease(0));
        s[c].push_back(MemOp::barrier());
        s[c].push_back(MemOp::read(b));
    }
    return TraceWorkload("two-core", std::move(s), 1);
}

SystemConfig
twoCoreConfig()
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.meshWidth = 2;
    cfg.clusterSize = 2;
    cfg.numMemControllers = 1;
    return cfg;
}

} // namespace

TEST(StepClassify, OpKindDecidesWhenNoCounterMoved)
{
    const StepCounters c = counters(1, 2, 3, 4, 5);
    EXPECT_EQ(classifyStep(MemOp::Kind::Compute, c, c), StepClass::Compute);
    EXPECT_EQ(classifyStep(MemOp::Kind::Barrier, c, c), StepClass::Sync);
    EXPECT_EQ(classifyStep(MemOp::Kind::LockAcquire, c, c),
              StepClass::Sync);
    EXPECT_EQ(classifyStep(MemOp::Kind::LockRelease, c, c),
              StepClass::Sync);
    EXPECT_EQ(classifyStep(MemOp::Kind::Done, c, c), StepClass::Done);
    for (const auto k :
         {MemOp::Kind::Read, MemOp::Kind::Write, MemOp::Kind::IFetch})
        EXPECT_EQ(classifyStep(k, c, c), StepClass::L1Hit);
}

TEST(StepClassify, CountersTakePrecedenceOverOpKind)
{
    const StepCounters b = counters(5, 5, 5, 5, 5);
    const auto after = [&](int moved) {
        StepCounters a = b;
        if (moved & 16) ++a.broadcasts;
        if (moved & 8) ++a.invalidations;
        if (moved & 4) ++a.dramFetches;
        if (moved & 2) ++a.remoteWords;
        if (moved & 1) ++a.privateFills;
        return a;
    };
    // The highest moved counter wins, whatever moved below it and
    // whatever the op kind.
    for (int m = 1; m < 32; ++m) {
        StepClass want = StepClass::PrivateFill;
        if (m & 16) want = StepClass::Broadcast;
        else if (m & 8) want = StepClass::Inval;
        else if (m & 4) want = StepClass::Dram;
        else if (m & 2) want = StepClass::RemoteWord;
        for (const auto k :
             {MemOp::Kind::Read, MemOp::Kind::Write, MemOp::Kind::IFetch,
              MemOp::Kind::Compute, MemOp::Kind::Barrier,
              MemOp::Kind::LockAcquire})
            EXPECT_EQ(classifyStep(k, b, after(m)), want) << "moved " << m;
    }
}

TEST(StepClassify, CounterThatGoesDownIsAReset)
{
    EXPECT_EQ(counterDelta(10, 13), 3u);
    EXPECT_EQ(counterDelta(10, 2), 2u); // reset, then two more
    EXPECT_EQ(counterDelta(10, 0), 0u); // reset, nothing since
}

// A hand-built two-core step sequence across the warm-up reset: the
// counters fall to zero inside core 1's barrier step, and the next
// steps must be classified by what moved after the reset.
TEST(StepLogTest, HandBuiltTwoCoreTraceAcrossReset)
{
    StepLog log;
    // core 0 read: cold miss, fetched from DRAM and granted privately.
    log.open(MemOp::Kind::Read, counters(0, 0, 0, 0, 0));
    log.close(counters(0, 0, 1, 0, 1), 100);
    // core 1 write: invalidates core 0's copy, then a private grant.
    log.open(MemOp::Kind::Write, counters(0, 0, 1, 0, 1));
    log.close(counters(0, 1, 1, 0, 2), 200);
    // core 0 read: hit.
    log.open(MemOp::Kind::Read, counters(0, 1, 1, 0, 2));
    log.close(counters(0, 1, 1, 0, 2), 10);
    // core 1 barrier: the release broadcasts, and the warm-up reset
    // then zeroes every counter, the new broadcast included.
    log.open(MemOp::Kind::Barrier, counters(0, 1, 1, 0, 2));
    log.close(counters(0, 0, 0, 0, 0), 300);
    // core 0 barrier arrival that moves nothing.
    log.open(MemOp::Kind::Barrier, counters(0, 0, 0, 0, 0));
    log.close(counters(0, 0, 0, 0, 0), 30);
    // core 0 remote word read just after the reset.
    log.open(MemOp::Kind::Read, counters(0, 0, 0, 0, 0));
    log.close(counters(0, 0, 0, 1, 0), 50);
    // core 1 write whose step spans a reset: counters end below where
    // they started, but one broadcast happened after the reset.
    log.open(MemOp::Kind::Write, counters(3, 9, 9, 9, 9));
    log.close(counters(1, 0, 0, 0, 0), 400);
    // core 1 read spanning a reset with nothing after it: a hit.
    log.open(MemOp::Kind::Read, counters(3, 9, 9, 9, 9));
    log.close(counters(0, 0, 0, 0, 0), 5);
    // A close without an open step records nothing.
    log.close(counters(0, 0, 0, 0, 0), 1000);

    EXPECT_EQ(log.steps(), 8u);
    EXPECT_EQ(count(log, StepClass::Dram), 1u);
    EXPECT_EQ(count(log, StepClass::Inval), 1u);
    EXPECT_EQ(count(log, StepClass::L1Hit), 2u);
    // The reset hides the release's broadcast: after the reset the
    // counter reads 0, so the step counts as a plain sync step.
    EXPECT_EQ(count(log, StepClass::Sync), 2u);
    EXPECT_EQ(count(log, StepClass::RemoteWord), 1u);
    EXPECT_EQ(count(log, StepClass::Broadcast), 1u);
    EXPECT_EQ(log.samples(StepClass::Broadcast)[0], 400u);
    EXPECT_EQ(log.totalNs(), 1095u);
}

// Tracing a real run: one class per step, class counts sum to the
// steps issued, and the traced run's statistics are the untraced ones.
TEST(StepTracerTest, ClassCountsSumToStepsAndDigestUnchanged)
{
    const SystemConfig cfg = twoCoreConfig();
    TraceWorkload plain_wl = twoCoreTrace();
    Multicore plain(cfg);
    const std::uint64_t want = statsSignature(plain.run(plain_wl));

    TraceWorkload inner = twoCoreTrace();
    Multicore traced(cfg);
    StepTracer tracer(inner, traced);
    const std::uint64_t got = statsSignature(traced.run(tracer));
    tracer.finish();
    EXPECT_EQ(got, want);

    const StepLog &log = tracer.steps();
    std::uint64_t sum = 0;
    for (std::size_t c = 0; c < kNumStepClasses; ++c)
        sum += count(log, static_cast<StepClass>(c));
    EXPECT_EQ(sum, log.steps());
    // One step per Workload::next call (the lock hand-off read is
    // injected by the system and folded into the step before it).
    EXPECT_EQ(log.steps(), tracer.nextSamples().size());
    EXPECT_EQ(count(log, StepClass::Done), 2u);
    EXPECT_EQ(count(log, StepClass::Compute), 80u);
    // The releasing barrier arrival broadcasts.
    EXPECT_GE(count(log, StepClass::Broadcast), 1u);
    EXPECT_GT(count(log, StepClass::L1Hit), 0u);
    EXPECT_GT(count(log, StepClass::PrivateFill) +
                  count(log, StepClass::RemoteWord),
              0u);
}

TEST(Failures, RunAbortCountsAsFailed)
{
    const WorkloadDef &w = *findWorkload("shared-rw");
    const SystemConfig cfg = workloadConfig(w, 1);
    SimRun r = runSim(w, cfg, RunMode::Timed, /*timeout_ms=*/1e-6);
    EXPECT_NE(r.error.find("RunAbort"), std::string::npos) << r.error;

    Ledger ledger;
    ledger.record("");
    recordRun(ledger, r, nullptr, "timed run");
    EXPECT_EQ(ledger.attempted(), 2u);
    EXPECT_EQ(ledger.failed(), 1u);
    EXPECT_DOUBLE_EQ(ledger.failFrac(), 0.5);
}

TEST(Failures, DigestMismatchCountsAsFailed)
{
    const WorkloadDef &w = *findWorkload("enumerate");
    const SystemConfig cfg = workloadConfig(w, 3);
    std::vector<SimRun> runs;
    runs.push_back(runSim(w, cfg, RunMode::Timed));
    runs.push_back(runSim(w, cfg, RunMode::Checked));
    ASSERT_EQ(runs[0].error, "");
    ASSERT_EQ(runs[1].error, "");

    Ledger ledger;
    recordRun(ledger, runs[0], reference(runs), "timed run");
    recordRun(ledger, runs[1], reference(runs), "checked run");
    EXPECT_EQ(ledger.failed(), 0u);

    SimRun other = runSim(w, workloadConfig(w, 4), RunMode::Timed);
    recordRun(ledger, other, reference(runs), "timed run");
    EXPECT_EQ(ledger.failed(), 1u);
    EXPECT_EQ(ledger.attempted(), 3u);
}

TEST(Failures, UncleanEnumerationIsAnError)
{
    verify::EnumResult r;
    r.exhaustive = true;
    EXPECT_EQ(enumError(r), "");
    r.exhaustive = false;
    EXPECT_NE(enumError(r), "");
    r.exhaustive = true;
    r.violations.push_back("single-writer");
    EXPECT_NE(enumError(r), "");
}

TEST(Workloads, SeedSelectsTheInputs)
{
    const WorkloadDef &w = *findWorkload("enumerate");
    const SimRun a = runSim(w, workloadConfig(w, 7), RunMode::Timed);
    const SimRun b = runSim(w, workloadConfig(w, 7), RunMode::Timed);
    const SimRun c = runSim(w, workloadConfig(w, 8), RunMode::Timed);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_NE(a.digest, c.digest);
    EXPECT_EQ(a.error, "");
}

TEST(Stats, QuantileInterpolates)
{
    EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
    EXPECT_DOUBLE_EQ(quantile({1.0, 2.0}, 0.5), 1.5);
    EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 1.0), 5.0);
}
