/**
 * @file
 * One tile of the multicore (Fig 3): compute pipeline state, private
 * L1-I and L1-D caches, an L2 slice with the integrated directory, and
 * per-core statistics. The network router is shared infrastructure
 * (net/network.hh, a factory-built NetworkModel — 2-D mesh by
 * default); the directory state machine lives in the
 * protocol layer's DirectoryController (protocol/protocol.hh), which
 * owns every mutation of the L2Meta directory entries embedded here.
 */

#ifndef LACC_SYSTEM_TILE_HH
#define LACC_SYSTEM_TILE_HH

#include <cstdint>
#include <deque>

#include "cache/miss_status.hh"
#include "cache/set_assoc.hh"
#include "protocol/dir_entry.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "workload/workload.hh"

namespace lacc {

/** Execution status of a core. */
enum class CoreStatus : std::uint8_t {
    Runnable,
    BlockedBarrier,
    BlockedLock,
    Finished,
};

/** One tile: core front-end state + caches + stats. */
class Tile
{
  public:
    Tile(CoreId id, const SystemConfig &cfg)
        : id(id),
          l1i(cfg.l1iSets(), cfg.l1iAssoc, cfg.wordsPerLine()),
          l1d(cfg.l1dSets(), cfg.l1dAssoc, cfg.wordsPerLine()),
          l2(cfg.l2Sets(), cfg.l2Assoc, cfg.wordsPerLine(),
             DirLayout(cfg).bytes()),
          // Pre-size the miss-taxonomy map: a small multiple of this
          // core's L1 capacity bounds the lines it loses and
          // re-misses in steady state.
          missTracker((static_cast<std::size_t>(cfg.l1dSets()) *
                           cfg.l1dAssoc +
                       static_cast<std::size_t>(cfg.l1iSets()) *
                           cfg.l1iAssoc) *
                      4)
    {}

    /**
     * Become an exact copy of @p o, the same core's tile in a system
     * of the same config (Multicore::restoreFrom): caches, miss
     * tracker, clock, status, injected ops, ifetch walker, stats.
     */
    void restoreFrom(const Tile &o);

    const CoreId id;

    // ---- Memory hierarchy ------------------------------------------------
    L1Cache l1i;
    L1Cache l1d;
    L2Cache l2;
    MissStatusTracker missTracker; //!< data-miss taxonomy (§4.4)

    // ---- Core front-end ----------------------------------------------------
    Cycle now = 0;                //!< local clock (lax synchronization)
    CoreStatus status = CoreStatus::Runnable;
    std::deque<MemOp> pending;    //!< injected ops (lock handoffs ...)

    // Instruction-stream walker (see Multicore::advanceInstructions).
    std::uint32_t ifetchLine = 0;   //!< index into the code footprint
    std::uint32_t instrInLine = 0;  //!< instructions since line start

    CoreStats stats;
};

} // namespace lacc

#endif // LACC_SYSTEM_TILE_HH
