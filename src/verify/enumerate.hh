/**
 * @file
 * Exhaustive reachable-state enumeration for a bounded configuration
 * (2-4 cores, 1-2 lines): BFS over every possible next access from
 * every reachable protocol state, asserting every invariant
 * (verify/invariants.hh) in every state, with canonical-state
 * deduplication and a reproducible counterexample path on failure.
 *
 * States are reached by *restore*: each BFS node is its access
 * sequence from reset. Expanding a node restores a scratch system to
 * reset (Multicore::restoreFrom) and replays the node's path once;
 * each successor is then explored on a second scratch system restored
 * from the node plus one event (Multicore::testAccess). No system is
 * built per successor, and restore copies only occupied state.
 * Directory transactions are atomic in this simulator, so the
 * per-access granularity really does visit every reachable protocol
 * state — there are no transient interleavings below it.
 *
 * Bookkeeping is flat. A state's id is its BFS discovery index. The
 * visited set keeps every canonical code in full in one chunked arena
 * indexed by id, with an open-addressing table of ids keyed by a hash
 * of the code; a lookup compares the whole stored code (memcmp), so a
 * hash collision can never merge two states. Per id the enumerator
 * keeps only {parent id, event}: the frontier is a cursor over the
 * ids, and a node's path is rebuilt by walking parents to reset.
 * checkAll runs after every explored transition, including ones that
 * reach an already-visited state: the encoding excludes data words,
 * so a seen code does not make a state's values seen.
 *
 * Canonicalization (what makes the search finite) deliberately
 * excludes pure-timing state — per-core clocks, per-line busyUntil,
 * LRU timestamps (the config uses direct-mapped L1s and never fills
 * an L2 set, so replacement is timing-independent) — and caps the
 * monotone utilization counters at their decision thresholds
 * (privateUtil at PCT, remoteUtil at RATmax): beyond the threshold
 * every comparison the protocol makes is saturated, so larger values
 * are future-equivalent. Line data words are also excluded (values
 * never drive protocol decisions; the fuzzer covers value movement).
 * Everything else — L1 states, directory states, holder sets, the
 * ACKwise overflow bit, per-core classifier records, R-NUCA page
 * records — is part of the canonical state, stored in full (no
 * hashing), so deduplication can never merge genuinely distinct
 * states. (The owner is a function of the directory state and the
 * holder set.)
 *
 * The encoding (encodeState) is fixed-width binary, one byte per
 * field, laid out per (core, L1, pool line) and per (home, pool line):
 * only pool lines are ever accessed, so this layout holds exactly the
 * information of a tag-sorted list of every valid line, and
 * encodeState panics if a line outside the pool is resident. Holder
 * sets are core bitmasks (grant order matters only for timing, which
 * is excluded).
 */

#ifndef LACC_VERIFY_ENUMERATE_HH
#define LACC_VERIFY_ENUMERATE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"

namespace lacc {

class Multicore;

namespace verify {

/** Largest EnumOptions::maxStates: the visited set's 32-bit ids. */
constexpr std::uint64_t kMaxEnumStates = 0xFFFFFFFFu;

/**
 * Bounds of one enumeration (CLI: bench/lacc_verify.cc). enumerate()
 * fatal()s on a value outside its range rather than report a vacuous
 * or unsound "exhaustive": no lines means no events, one core has no
 * coherence to check, and the argument above is made only for these
 * ranges (from a fifth line on, for example, the pool reaches a
 * second page whose R-NUCA record the encoding leaves out).
 */
struct EnumOptions
{
    std::uint32_t cores = 2;        //!< [2, 4]
    std::uint32_t lines = 2;        //!< [1, 2]
    std::string protocol = "lacc";  //!< protocol name
    std::string network = "mesh";   //!< factory key
    /** Cap on distinct states, in [1, kMaxEnumStates]. The default
     * covers the default 2-core/2-line space (362,795 states). */
    std::uint64_t maxStates = 2000000;
};

/** Outcome of an enumeration. */
struct EnumResult
{
    std::uint64_t states = 0;      //!< distinct canonical states
    std::uint64_t transitions = 0; //!< edges explored
    /** True when the frontier drained below maxStates with no
     * violation: every reachable state was visited and checked. */
    bool exhaustive = false;
    std::vector<std::string> violations; //!< first bad state's report
    /** Global access sequence reaching the first bad state (one
     * "core <c> r|w|f <hex-addr>" line per access), replayable with
     * Multicore::testAccess. Empty when clean. */
    std::string counterexample;
};

/** Enumerate and check every reachable state; see file header. */
EnumResult enumerate(const EnumOptions &opt);

/**
 * The bounded configuration the enumerator explores: direct-mapped
 * 16-set L1s (the two lines are 16 lines apart — same set, so
 * evictions are reachable and replacement is deterministic), PCT =
 * RATmax = 2 so every classifier transition is a few accesses away,
 * ACKwise p=1 so overflow is reachable with 2 sharers, one
 * cluster (unique instruction homes).
 */
SystemConfig enumConfig(std::uint32_t cores, const std::string &protocol,
                        const std::string &network);

/** Byte address of pool line @p line (0-based) the enumerator uses. */
Addr enumAddr(std::uint32_t line);

/**
 * Write the canonical state of @p m (see file header) over a pool of
 * @p lines lines into @p out, replacing its contents. The width
 * depends only on the config and @p lines, so a reused buffer never
 * allocates after its first use. Absent lines and entries are zero
 * bytes: @p out is zeroed, then only the valid L1 lines and
 * directory entries are visited and written in place, so the cost
 * scales with what is resident. fatal() when a field does not fit
 * its byte (more than 8 cores, PCT or RATmax above 255).
 */
void encodeState(Multicore &m, std::uint32_t lines, std::string &out);

} // namespace verify
} // namespace lacc

#endif // LACC_VERIFY_ENUMERATE_HH
