/**
 * @file
 * Open-addressing hash map for address-like 64-bit keys.
 *
 * The simulator's hottest maps (per-core miss trackers, the R-NUCA
 * page table, the DRAM slab index) are keyed by line/page addresses
 * and live on the per-access path. std::unordered_map allocates one
 * heap node per insert and chases a bucket pointer per lookup;
 * FlatAddrMap stores {key, value} cells in one contiguous array with
 * linear probing (mixAddrBits hash), so lookups touch a single cache
 * line in the common case and inserts allocate only on growth. The
 * functional reference memory uses it too, so that a snapshot restore
 * (assignFrom) copies one array instead of allocating per word.
 *
 * Constraints (all satisfied by the simulator's users):
 *  - keys must never equal kInvalidAddr (the empty-cell sentinel);
 *    real addresses are <= 48 bits;
 *  - no erase support (the users only insert/update);
 *  - growth invalidates value pointers (callers hold them only
 *    transiently, never across an insert).
 */

#ifndef LACC_SIM_FLAT_MAP_HH
#define LACC_SIM_FLAT_MAP_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace lacc {

/** Flat linear-probing hash map; see file header for constraints. */
template <typename V>
class FlatAddrMap
{
  public:
    FlatAddrMap() = default;

    /** Pre-size for about @p expected entries without rehashing. */
    explicit FlatAddrMap(std::size_t expected) { reserve(expected); }

    /** Entries stored. */
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Grow the table so @p expected entries fit within load factor. */
    void
    reserve(std::size_t expected)
    {
        std::size_t want = kMinCapacity;
        // Max load factor 3/4: capacity > expected * 4/3.
        while (want * 3 < expected * 4)
            want <<= 1;
        if (want > cells_.size())
            rehash(want);
    }

    /** @return the value stored under @p key, or nullptr. */
    V *
    find(std::uint64_t key)
    {
        if (cells_.empty())
            return nullptr;
        std::size_t i = mixAddrBits(key) & mask_;
        while (true) {
            Cell &c = cells_[i];
            if (c.key == key)
                return &c.val;
            if (c.key == kEmptyKey)
                return nullptr;
            i = (i + 1) & mask_;
        }
    }

    const V *
    find(std::uint64_t key) const
    {
        return const_cast<FlatAddrMap *>(this)->find(key);
    }

    /** Insert-or-get with a default-constructed value. */
    V &
    operator[](std::uint64_t key)
    {
        if (cells_.empty())
            rehash(kMinCapacity);
        while (true) {
            std::size_t i = mixAddrBits(key) & mask_;
            while (true) {
                Cell &c = cells_[i];
                if (c.key == key)
                    return c.val; // pure update: never grows
                if (c.key == kEmptyKey) {
                    // Grow only when actually claiming a cell would
                    // cross the load factor, then re-probe.
                    if ((size_ + 1) * 4 > cells_.size() * 3)
                        break;
                    c.key = key;
                    ++size_;
                    return c.val;
                }
                i = (i + 1) & mask_;
            }
            rehash(cells_.size() * 2);
        }
    }

    /**
     * Make this map hold exactly @p o's entries, in @p o's cell
     * layout (snapshot restore, Multicore::restoreFrom). Two empty
     * maps are left alone whatever their capacities, so a large
     * pre-sized table that is unused on both sides costs nothing;
     * otherwise the cell array is copied into the existing allocation
     * when it is large enough.
     */
    void
    assignFrom(const FlatAddrMap &o)
    {
        if (size_ == 0 && o.size_ == 0)
            return;
        cells_ = o.cells_;
        mask_ = o.mask_;
        size_ = o.size_;
    }

    /** Apply @p fn(key, value) to every entry (probe order). */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (const Cell &c : cells_)
            if (c.key != kEmptyKey)
                fn(c.key, c.val);
    }

  private:
    /** Sentinel marking an unoccupied cell; never a real address. */
    static constexpr std::uint64_t kEmptyKey = kInvalidAddr;
    static constexpr std::size_t kMinCapacity = 16;

    struct Cell
    {
        std::uint64_t key = kEmptyKey;
        V val{};
    };

    void
    rehash(std::size_t new_capacity)
    {
        std::vector<Cell> old = std::move(cells_);
        cells_.assign(new_capacity, Cell{});
        mask_ = new_capacity - 1;
        for (Cell &c : old) {
            if (c.key == kEmptyKey)
                continue;
            std::size_t i = mixAddrBits(c.key) & mask_;
            while (cells_[i].key != kEmptyKey)
                i = (i + 1) & mask_;
            cells_[i] = std::move(c);
        }
    }

    std::vector<Cell> cells_; //!< power-of-two sized, or empty
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace lacc

#endif // LACC_SIM_FLAT_MAP_HH
