/**
 * @file
 * Functional reference memory (word granularity). The protocol layer
 * moves real data values through L1 copies, remote word accesses,
 * write-backs, and DRAM; this class provides the generator for fresh
 * store values and an optional golden copy every load is checked
 * against (mirroring Graphite's functionally-correct memory system,
 * §4.1). Owned by Multicore; handed to the protocol through the
 * ProtocolContext.
 *
 * Store values come from per-core counters: the value a store
 * produces depends only on (core, store index), so it is unique and
 * independent of how other cores progress.
 */

#ifndef LACC_SIM_FUNCTIONAL_HH
#define LACC_SIM_FUNCTIONAL_HH

#include <cstdint>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/log.hh"
#include "sim/types.hh"

namespace lacc {

/** Reference memory + store-value generator for functional checking. */
class FunctionalMemory
{
  public:
    /**
     * Enable/disable read checking (default on; benches disable it
     * for speed — data still moves through the protocol either way).
     */
    void setChecks(bool on) { checks_ = on; }
    bool checksEnabled() const { return checks_; }

    /** Size the per-core value generators (Multicore calls this). */
    void
    setCores(std::uint32_t n)
    {
        if (counters_.size() < n)
            counters_.resize(n, 0);
    }

    /** The 64-bit-word address backing a byte address. */
    static constexpr Addr
    wordAddr(Addr addr)
    {
        return addr & ~Addr{7};
    }

    /**
     * Pre-size the reference map for a workload touching roughly
     * @p expected_words distinct words, so big traces do not rehash
     * the map over and over as the footprint is discovered. No-op
     * when checking is disabled (the map stays empty then).
     */
    void
    reserveFootprint(std::size_t expected_words)
    {
        if (checks_)
            mem_.reserve(expected_words);
    }

    /**
     * A fresh store value for a store by core @p c: globally unique
     * (core id in the low bits) and a pure function of the core's own
     * store count, independent of other cores' progress.
     */
    std::uint64_t
    nextValue(CoreId c)
    {
        if (c >= counters_.size())
            counters_.resize(static_cast<std::size_t>(c) + 1, 0);
        return (++counters_[c] << 12) | (c & 0xfff);
    }

    /** Record a store's value in the reference memory. */
    void
    write(Addr addr, std::uint64_t v)
    {
        if (!checks_)
            return;
        mem_[wordAddr(addr)] = v;
    }

    /** Check a load's value against the reference memory. */
    void
    checkRead(Addr addr, std::uint64_t got)
    {
        if (!checks_)
            return;
        const std::uint64_t *found = mem_.find(wordAddr(addr));
        const std::uint64_t expect = found == nullptr ? 0 : *found;
        if (got != expect) {
            ++errors_;
            if (errors_ <= 10) {
                warn("functional mismatch at %llx: got %llu expect"
                     " %llu",
                     static_cast<unsigned long long>(addr),
                     static_cast<unsigned long long>(got),
                     static_cast<unsigned long long>(expect));
            }
        }
    }

    /** Mismatches observed (must be 0 after a run). */
    std::uint64_t errors() const { return errors_; }

    /**
     * Look up the reference value of the word backing @p addr.
     * @return false when the word was never written (reads of such
     * words are checked against 0). Used by the verification layer's
     * final-memory oracle (verify/invariants.hh).
     */
    bool
    lookup(Addr addr, std::uint64_t &out) const
    {
        const std::uint64_t *found = mem_.find(wordAddr(addr));
        if (found == nullptr)
            return false;
        out = *found;
        return true;
    }

    /** Number of distinct words the reference memory tracks. */
    std::size_t trackedWords() const { return mem_.size(); }

    /**
     * Apply @p fn(wordAddr, value) to every tracked reference word.
     * Iteration order is unspecified; callers that need determinism
     * (the verification oracle) must sort what they collect.
     */
    template <typename F>
    void
    forEachWord(F &&fn) const
    {
        mem_.forEach(fn);
    }

    /**
     * Become an exact copy of @p o: checking mode, mismatch count,
     * per-core store counters and reference words
     * (Multicore::restoreFrom). Sizes are equal between two systems
     * of one config, so a warm copy does not allocate.
     */
    void
    restoreFrom(const FunctionalMemory &o)
    {
        checks_ = o.checks_;
        errors_ = o.errors_;
        counters_ = o.counters_;
        mem_.assignFrom(o.mem_);
    }

  private:
    bool checks_ = true;
    std::uint64_t errors_ = 0;
    std::vector<std::uint64_t> counters_;
    // Flat open-addressing map (sim/flat_map.hh): one contiguous cell
    // array, so a restore copies it without a per-word allocation.
    FlatAddrMap<std::uint64_t> mem_;
};

} // namespace lacc

#endif // LACC_SIM_FUNCTIONAL_HH
