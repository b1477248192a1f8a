/**
 * @file
 * Directory-entry metadata of an L2 slice line (Fig 6/7): the
 * directory-visible MESI summary state, the protocol's sharer list,
 * the simulator's ground-truth holder oracle, and the per-line
 * locality-classifier record. Owned and mutated exclusively by the
 * protocol layer's DirectoryController; system/Tile merely embeds the
 * L2Cache array.
 *
 * No directory entry owns a heap object. The fixed part (L2Meta) is a
 * plain value; the parts whose size the config decides — a full-map
 * list's bit vector and the classifier record — live in the L2 slot's
 * block of the cache's auxiliary arena, laid out by DirLayout. A
 * snapshot restore therefore copies an entry by assignment plus a
 * byte copy of that block (SetAssocCache::restoreFrom).
 */

#ifndef LACC_PROTOCOL_DIR_ENTRY_HH
#define LACC_PROTOCOL_DIR_ENTRY_HH

#include <cstddef>
#include <cstdint>

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
 * simulator bookkeeping. Every fill rewrites all of it
 * (BaseDirectoryController::l2FindOrFill).
 */
struct L2Meta
{
    /**
     * Ground-truth holder identities (which L1s hold a copy). The
     * protocol's sharer list may hide identities in ACKwise overflow
     * mode; the simulator uses this oracle for invalidation *timing*
     * (acks physically come from the actual holders) while protocol
     * decisions (unicast vs broadcast, ack counts) use the sharer
     * list. Kept in grant order — invalidation fan-out order is part
     * of the modeled timing (see protocol/core_vec.hh).
     */
    HolderVec holders;
    Cycle busyUntil = 0;           //!< per-line serialization window
    SharerState sharers;           //!< inline part of the sharer list
    CoreId owner = kInvalidCore;   //!< valid iff dstate == Exclusive
    DirState dstate = DirState::Uncached;
    bool dirty = false;            //!< L2 copy newer than DRAM
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
    m.sharers = SharerState{};
    m.owner = kInvalidCore;
    m.dstate = DirState::Uncached;
    m.dirty = false;
}

/** L2 slice array: hashed set index (see SetAssocCache). */
using L2Cache = SetAssocCache<L2Meta, true>;

/**
 * Layout of an L2 slot's auxiliary block, derived from the config:
 * the full-map bit words first (none under ACKwise), then the
 * classifier record (LocalityClassifier::recordBytes). Each region
 * holds one type for the life of the cache, so its bytes are never
 * read through two different types.
 */
struct DirLayout
{
    explicit DirLayout(const SystemConfig &cfg)
        : sharerBytes(cfg.directoryKind == DirectoryKind::FullMap
                          ? SharerState::fullMapWords(cfg.numCores) * 8
                          : 0),
          recordBytes(LocalityClassifier::recordBytes(cfg))
    {}

    /** Auxiliary bytes per L2 slot. */
    std::uint32_t bytes() const { return sharerBytes + recordBytes; }

    /** @p e's classifier record. */
    std::byte *record(L2Cache::Entry e) const
    {
        return e.aux() + sharerBytes;
    }

    std::uint32_t sharerBytes;
    std::uint32_t recordBytes;
};

/** @p e's sharer list: its SharerState bound to its full-map bits. */
inline SharerList
sharersOf(L2Cache::Entry e)
{
    return SharerList(e.meta().sharers,
                      reinterpret_cast<std::uint64_t *>(e.aux()));
}

} // namespace lacc

#endif // LACC_PROTOCOL_DIR_ENTRY_HH
