/**
 * @file
 * Fundamental scalar types shared across the lacc simulator.
 *
 * The paper models a 64-core tiled multicore with 48-bit physical
 * addresses and 64-byte cache lines (Table 1). All timing is expressed
 * in core cycles at 1 GHz, so 1 cycle == 1 ns.
 */

#ifndef LACC_SIM_TYPES_HH
#define LACC_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace lacc {

/** Byte-granularity physical address (48 bits used). */
using Addr = std::uint64_t;

/** Cache-line-granularity address: Addr >> log2(lineSize). */
using LineAddr = std::uint64_t;

/** Page-granularity address: Addr >> log2(pageSize). */
using PageAddr = std::uint64_t;

/** Simulated time in core cycles (1 GHz => 1 cycle == 1 ns). */
using Cycle = std::uint64_t;

/** Tile / core identifier; tiles are numbered row-major on the mesh. */
using CoreId = std::uint16_t;

/** Sentinel for "no core". */
constexpr CoreId kInvalidCore = std::numeric_limits<CoreId>::max();

/** Sentinel for "no address". */
constexpr Addr kInvalidAddr = std::numeric_limits<Addr>::max();

/** Sentinel cycle value used for "never" / unset timestamps. */
constexpr Cycle kNeverCycle = std::numeric_limits<Cycle>::max();

/**
 * Mixes line-address bits so interleaved homes do not alias L2 sets
 * (half of the MurmurHash3 finalizer). This exact function defines
 * the hashed L2 set index, so it is part of the simulated behavior —
 * never change it without regenerating the determinism goldens. For
 * hash *tables*, whose bucket choice is not modeled behavior, use
 * mixAddrBits below instead: the single-multiply variant
 * leaves the low bits of small aligned keys (page addresses) heavily
 * correlated.
 */
inline std::uint64_t
mixLineAddr(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
}

/**
 * Full MurmurHash3 64-bit finalizer: avalanches every input bit into
 * every output bit, including the low bits that power-of-two hash
 * tables mask on. Used by the address-keyed maps on the simulation
 * hot path (never for modeled indices — see mixLineAddr).
 */
inline std::uint64_t
mixAddrBits(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

/**
 * Locality mode of a core with respect to one cache line (Section 3.2).
 *
 * A Private sharer is handed full line copies; a Remote sharer's L1
 * misses are serviced as single-word accesses at the shared L2 home.
 */
enum class Mode : std::uint8_t { Private, Remote };

/** Kind of memory operation issued by a core. */
enum class MemOpType : std::uint8_t {
    Read,        //!< data load
    Write,       //!< data store
    IFetch,      //!< instruction fetch (L1-I path, read-only data)
};

/**
 * Miss taxonomy of Section 4.4. Word misses are misses to a line whose
 * previous interaction by this core was a remote word access.
 */
enum class MissType : std::uint8_t {
    Cold,
    Capacity,
    Upgrade,
    Sharing,
    Word,
    NumTypes,
};

/** Human-readable name for a MissType. */
const char *missTypeName(MissType t);

/** Human-readable name for a Mode. */
inline const char *
modeName(Mode m)
{
    return m == Mode::Private ? "Private" : "Remote";
}

inline const char *
missTypeName(MissType t)
{
    switch (t) {
      case MissType::Cold: return "Cold";
      case MissType::Capacity: return "Capacity";
      case MissType::Upgrade: return "Upgrade";
      case MissType::Sharing: return "Sharing";
      case MissType::Word: return "Word";
      default: return "?";
    }
}

} // namespace lacc

#endif // LACC_SIM_TYPES_HH
