/**
 * @file
 * Protocol-invariant library shared by the verification engines
 * (verify/fuzz.hh, verify/enumerate.hh) and callable from protocol
 * tests.
 *
 * The checks formalize the correctness conditions the directory
 * protocols must maintain in every quiescent state (directory
 * transactions are atomic in this simulator, so between accesses the
 * system *is* quiescent — there are no transient states to exclude):
 *
 *  - single-writer: an Exclusive directory entry has exactly one
 *    holder (the owner), holding exactly one E/M copy;
 *  - directory/L1 state consistency: Uncached entries have no
 *    holders, Shared entries have only S copies;
 *  - ACKwise overflow: the bit is set only under ACKwise and only
 *    with holders, and always once more than p cores hold the line;
 *  - holder set vs L1 residency: every tracked holder really has a
 *    copy, and every L1-resident line is tracked at its home
 *    (inclusion);
 *  - no stale reads: every S/E L1 copy is word-identical to the home
 *    L2 copy, and the final visible value of every written word (M
 *    copy > L2 copy > DRAM) equals the sequentially-consistent
 *    reference memory.
 *
 * Violations are returned as human-readable strings rather than
 * asserted, so the fuzzer can shrink failing traces and the
 * enumerator can report counterexample paths instead of aborting.
 */

#ifndef LACC_VERIFY_INVARIANTS_HH
#define LACC_VERIFY_INVARIANTS_HH

#include <string>
#include <vector>

namespace lacc {

class Multicore;

namespace verify {

/**
 * Check every protocol invariant over the full directory/L1 state of
 * @p m. @return one message per violation; empty means clean.
 */
std::vector<std::string> checkInvariants(Multicore &m);

/**
 * Check the final visible value of every word the reference memory
 * tracks: the unique Modified L1 copy if one exists, else the home L2
 * copy, else DRAM. Meaningful after a run (or any quiescent point);
 * @return one message per mismatching word and home, in ascending
 * word order (homes ascending within a word). Allocates nothing when
 * every word matches.
 */
std::vector<std::string> checkFinalMemory(Multicore &m);

/**
 * checkInvariants + checkFinalMemory + the per-access functional
 * error counter, concatenated. The one-call entry point for the
 * verification engines; on a clean state it allocates nothing (the
 * enumerator calls it after every transition).
 */
std::vector<std::string> checkAll(Multicore &m);

} // namespace verify
} // namespace lacc

#endif // LACC_VERIFY_INVARIANTS_HH
