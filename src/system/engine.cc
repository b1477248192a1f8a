#include "system/engine.hh"

#include <algorithm>

#include "sim/config.hh"
#include "sim/log.hh"
#include "sim/named_registry.hh"
#include "sim/profiler.hh"
#include "system/multicore.hh"
#include "system/sharded.hh"
#include "system/tile.hh"
#include "workload/workload.hh"

namespace lacc {

EventQueue::EventQueue(std::uint32_t num_cores) : leaves_(1)
{
    if (num_cores == 0 || num_cores > kCoreMask)
        panic("EventQueue: %u cores outside [1, %llu]", num_cores,
              static_cast<unsigned long long>(kCoreMask));
    while (leaves_ < num_cores)
        leaves_ *= 2;
    tree_.assign(2 * leaves_, kIdle);
}

void
EventQueue::schedule(CoreId c, Cycle t)
{
    if (t >> (64 - kCoreBits) != 0)
        panic("core %u scheduled at cycle %llu, beyond the event key's"
              " 48-bit time field", c, static_cast<unsigned long long>(t));
    if (c == stepping_ && !rescheduled_)
        rescheduled_ = true; // the popped core rewrites its own leaf
    else if (tree_[leaves_ + c] != kIdle)
        panic("core %u scheduled while already queued", c);
    setLeaf(c, (t << kCoreBits) | c);
}

SerialEngine::SerialEngine(Multicore &m)
    : m_(m), queue_(m.cfg_.numCores)
{}

void
SerialEngine::run(Workload &workload)
{
    for (std::uint32_t c = 0; c < m_.cfg_.numCores; ++c)
        onSchedule(static_cast<CoreId>(c), 0);

    while (!queue_.empty()) {
        if (m_.watchdogExpired())
            return; // Multicore::run turns this into RunAbort(Timeout)
        const auto [t, c] = queue_.pop();
        Tile &tl = *m_.tiles_[c];
        if (tl.status != CoreStatus::Runnable)
            panic("scheduled core %u is not runnable", c);
        tl.now = std::max(tl.now, t);
        MemOp op;
        if (!tl.pending.empty()) {
            op = tl.pending.front();
            tl.pending.pop_front();
        } else {
            prof::Scope ps(prof::Workload);
            op = workload.next(c);
        }
        m_.step(c, op);
        queue_.endStep();
    }
}

namespace {

/**
 * The single registration point: adding an engine means adding one
 * entry here (plus its EngineKind). Lookup and diagnostics come from
 * the shared named-registry helpers.
 */
struct EngineEntry
{
    const char *name;
    EngineKind kind;
    std::unique_ptr<ExecutionEngine> (*make)(const SystemConfig &,
                                             Multicore &);
};

const EngineEntry kEngines[] = {
    {"serial", EngineKind::Serial,
     [](const SystemConfig &,
        Multicore &m) -> std::unique_ptr<ExecutionEngine> {
         return std::make_unique<SerialEngine>(m);
     }},
    {"sharded", EngineKind::Sharded,
     [](const SystemConfig &cfg,
        Multicore &m) -> std::unique_ptr<ExecutionEngine> {
         return std::make_unique<ShardedEngine>(m, cfg.simThreads);
     }},
};

} // namespace

std::unique_ptr<ExecutionEngine>
makeEngine(const SystemConfig &cfg, Multicore &m)
{
    return registry::entryForKind(kEngines, cfg.engineKind, "engine")
        .make(cfg, m);
}

const std::vector<std::string> &
engineNames()
{
    static const std::vector<std::string> names =
        registry::entryNames(kEngines);
    return names;
}

const char *
engineNameFor(const SystemConfig &cfg)
{
    return registry::entryForKind(kEngines, cfg.engineKind, "engine")
        .name;
}

void
applyEngineName(SystemConfig &cfg, const std::string &name)
{
    cfg.engineKind =
        registry::entryForNameOrFatal(kEngines, "engine", name).kind;
}

} // namespace lacc
