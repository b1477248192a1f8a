/**
 * @file
 * Reactive-NUCA page classification (Hardavellas et al., ISCA 2009),
 * as used by the paper's baseline system (§3.1).
 *
 * Data pages are classified at OS-page granularity on first touch:
 * a page first touched by core c is Private(c); when a second core
 * touches it, it is re-classified Shared (and the old home slice must
 * be flushed, modeling the OS shootdown R-NUCA performs). Pages that
 * are instruction-fetched are classified Instruction and replicated
 * per cluster with rotational interleaving.
 */

#ifndef LACC_RNUCA_PAGE_TABLE_HH
#define LACC_RNUCA_PAGE_TABLE_HH

#include <cstdint>

#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace lacc {

/** R-NUCA classification of one OS page. */
enum class PageClass : std::uint8_t {
    PrivateData,  //!< accessed by a single core; homed at that core
    SharedData,   //!< accessed by multiple cores; hash-interleaved home
    Instruction,  //!< ifetched; replicated per cluster
};

/** Human-readable name for a PageClass. */
inline const char *
pageClassName(PageClass c)
{
    switch (c) {
      case PageClass::PrivateData: return "PrivateData";
      case PageClass::SharedData: return "SharedData";
      case PageClass::Instruction: return "Instruction";
      default: return "?";
    }
}

/** First-touch page classification table. */
class PageTable
{
  public:
    PageTable() = default;

    /**
     * @param expected_pages pre-sizes the classification map (e.g.
     *        the aggregate L2 footprint in pages) so steady-state
     *        first touches do not rehash it; the map still grows past
     *        the estimate if the workload touches more pages.
     */
    explicit PageTable(std::size_t expected_pages)
    {
        table_.reserve(expected_pages);
    }

    /** Classification record of one page. */
    struct Record
    {
        PageClass cls = PageClass::PrivateData;
        CoreId owner = kInvalidCore; //!< valid for PrivateData
    };

    /** Outcome of a classification lookup. */
    struct Result
    {
        Record record;
        /**
         * True when this access re-classified the page from
         * PrivateData to SharedData; the caller must flush the page's
         * lines from the old home slice (Record::owner of the previous
         * classification, reported in oldOwner).
         */
        bool rehomed = false;
        CoreId oldOwner = kInvalidCore;
    };

    /**
     * Classify (and possibly re-classify) the page for an access.
     *
     * @param page      page address (byte address >> log2(pageSize))
     * @param core      requesting core
     * @param is_ifetch instruction fetch?
     */
    Result access(PageAddr page, CoreId core, bool is_ifetch);

    /** @return current record; Private(requester-unknown) if untouched. */
    const Record *lookup(PageAddr page) const;

    /** Number of classified pages (test helper). */
    std::size_t size() const { return table_.size(); }

    /** Count pages currently in a given class (test helper). */
    std::size_t countClass(PageClass c) const;

    /** Become an exact copy of @p o (Multicore::restoreFrom). */
    void restoreFrom(const PageTable &o) { table_.assignFrom(o.table_); }

  private:
    // Flat open-addressing map (sim/flat_map.hh): consulted on every
    // directory transaction (access + homeOf lookup).
    FlatAddrMap<Record> table_;
};

} // namespace lacc

#endif // LACC_RNUCA_PAGE_TABLE_HH
