/**
 * @file
 * Directory-entry metadata of an L2 slice line (Fig 6/7): the
 * directory-visible MESI summary state, the protocol's SharerList,
 * the simulator's ground-truth holder oracle, and the per-line
 * locality-classifier state. Owned and mutated exclusively by the
 * protocol layer's DirectoryController; system/Tile merely embeds the
 * L2Cache array.
 */

#ifndef LACC_PROTOCOL_DIR_ENTRY_HH
#define LACC_PROTOCOL_DIR_ENTRY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/set_assoc.hh"
#include "core/classifier.hh"
#include "protocol/core_vec.hh"
#include "protocol/sharer_list.hh"
#include "sim/types.hh"

namespace lacc {

/** Directory-visible state of an L2 line. */
enum class DirState : std::uint8_t {
    Uncached,  //!< no L1 holds a copy
    Shared,    //!< >= 1 read-only L1 copies
    Exclusive, //!< one L1 holds an E or M copy (owner)
};

/** Human-readable name for a DirState. */
inline const char *
dirStateName(DirState s)
{
    switch (s) {
      case DirState::Uncached: return "U";
      case DirState::Shared: return "S";
      case DirState::Exclusive: return "E";
      default: return "?";
    }
}

/**
 * Per-line metadata of an L2 slice: directory entry (Fig 6/7) plus
 * simulator bookkeeping.
 */
struct L2Meta
{
    DirState dstate = DirState::Uncached;
    CoreId owner = kInvalidCore;   //!< valid iff dstate == Exclusive
    SharerList sharers;            //!< protocol sharer tracking
    /**
     * Ground-truth holder identities (which L1s hold a copy). The
     * protocol's SharerList may hide identities in ACKwise overflow
     * mode; the simulator uses this oracle for invalidation *timing*
     * (acks physically come from the actual holders) while protocol
     * decisions (unicast vs broadcast, ack counts) use the SharerList.
     * Kept in grant order — invalidation fan-out order is part of the
     * modeled timing (see protocol/core_vec.hh).
     */
    HolderVec holders;
    std::unique_ptr<LineClassifierState> cls; //!< locality records
    Cycle busyUntil = 0;           //!< per-line serialization window
    bool dirty = false;            //!< L2 copy newer than DRAM
};

/**
 * invalidate() reset for the L2 directory meta (found by ADL from
 * SetAssocCache::invalidate): protocol state is cleared, but the
 * classifier-state allocation and the sharer-list organization
 * survive — the refill path (l2FindOrFill) resets their contents in
 * place, so steady-state L2 slot churn performs no heap traffic.
 * The stale classifier contents are never read: every consumer goes
 * through a valid entry, and a refill resets before use.
 */
inline void
resetCacheMeta(L2Meta &m)
{
    m.dstate = DirState::Uncached;
    m.owner = kInvalidCore;
    m.sharers.clear();
    m.holders.clear();
    m.busyUntil = 0;
    m.dirty = false;
}

/**
 * Snapshot-restore copy of a valid directory entry @p src into @p dst
 * (SetAssocCache::restoreFrom, via Tile::restoreFrom). The classifier
 * state and the sharer list move together: the refill path
 * (l2FindOrFill) reads a non-null `cls` as "this slot's SharerList is
 * already organized", so a kept `cls` beside a copied default
 * SharerList would silently change later ACKwise behaviour. @p dst's
 * classifier allocation is reused when it has one.
 */
inline void
copyDirEntry(L2Meta &dst, const L2Meta &src,
             const LocalityClassifier &classifier)
{
    dst.dstate = src.dstate;
    dst.owner = src.owner;
    dst.sharers = src.sharers;
    dst.holders = src.holders;
    if (src.cls) {
        if (!dst.cls)
            dst.cls = classifier.makeState();
        classifier.copyState(*dst.cls, *src.cls);
    } else {
        dst.cls.reset();
    }
    dst.busyUntil = src.busyUntil;
    dst.dirty = src.dirty;
}

/** L2 slice array: hashed set index (see SetAssocCache). */
using L2Cache = SetAssocCache<L2Meta, true>;

} // namespace lacc

#endif // LACC_PROTOCOL_DIR_ENTRY_HH
