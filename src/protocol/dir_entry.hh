/**
 * @file
 * Directory-entry metadata of an L2 slice line (Fig 6/7): the
 * directory-visible MESI summary state, the holder set with its
 * ACKwise overflow bit, and the per-line locality-classifier record.
 * Owned and mutated exclusively by the protocol layer's
 * DirectoryController; system/Tile merely embeds the L2Cache array.
 *
 * No directory entry owns a heap object. The fixed part (L2Meta) is a
 * plain value; the classifier record, whose size the config decides
 * (LocalityClassifier::recordBytes), is the L2 slot's block of the
 * cache's auxiliary arena. A snapshot restore therefore copies an
 * entry by assignment plus a byte copy of that block
 * (SetAssocCache::restoreFrom).
 */

#ifndef LACC_PROTOCOL_DIR_ENTRY_HH
#define LACC_PROTOCOL_DIR_ENTRY_HH

#include <cstdint>
#include <limits>

#include "cache/set_assoc.hh"
#include "protocol/core_vec.hh"
#include "sim/config.hh"
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
 * Holders an entry tracks by identity before ACKwise_p overflows
 * (§3.1): p under ACKwise, no limit under a full map.
 */
inline std::uint32_t
overflowLimit(const SystemConfig &cfg)
{
    return cfg.directoryKind == DirectoryKind::Ackwise
               ? cfg.ackwisePointers
               : std::numeric_limits<std::uint32_t>::max();
}

/**
 * Per-line metadata of an L2 slice: directory entry (Fig 6/7) plus
 * simulator bookkeeping. Every fill rewrites all of it
 * (DirectoryController::l2FindOrFill).
 */
struct L2Meta
{
    /**
     * Which L1s hold a copy: the directory's one record of sharers.
     * Kept in grant order — invalidation fan-out order is part of the
     * modeled timing (see protocol/core_vec.hh).
     */
    HolderVec holders;
    Cycle busyUntil = 0; //!< per-line serialization window
    /**
     * ACKwise_p has seen more than p holders since the set was last
     * empty or last reduced to a writer by its write grant (§3.1):
     * its p pointers have lost identities, so an exclusive request
     * broadcasts, with acks still due only from the actual holders.
     * Never set under a full map.
     */
    bool overflowed = false;
    DirState dstate = DirState::Uncached;
    bool dirty = false; //!< L2 copy newer than DRAM

    /** The E/M holder under Exclusive, else kInvalidCore. */
    CoreId
    owner() const
    {
        return dstate == DirState::Exclusive ? holders[0] : kInvalidCore;
    }

    /**
     * Add holder @p c (a no-op if it already holds a copy); more than
     * @p limit holders (overflowLimit) overflow the entry.
     */
    void
    addHolder(CoreId c, std::uint32_t limit)
    {
        if (holders.insert(c) && holders.size() > limit)
            overflowed = true;
    }

    /** Remove holder @p c; an emptied set is exact again. */
    void
    dropHolder(CoreId c)
    {
        holders.erase(c);
        if (holders.empty())
            overflowed = false;
    }
};

/**
 * invalidate() reset for the L2 directory meta (found by ADL from
 * SetAssocCache::invalidate): protocol state is cleared, but the
 * holder set keeps its spill buffer for the slot's next line.
 */
inline void
resetCacheMeta(L2Meta &m)
{
    m.holders.clear();
    m.busyUntil = 0;
    m.overflowed = false;
    m.dstate = DirState::Uncached;
    m.dirty = false;
}

/** L2 slice array: hashed set index (see SetAssocCache). */
using L2Cache = SetAssocCache<L2Meta, true>;

} // namespace lacc

#endif // LACC_PROTOCOL_DIR_ENTRY_HH
