/**
 * @file
 * Workload abstraction: a per-core stream of memory operations.
 *
 * The paper drives its evaluation with 21 multithreaded benchmarks
 * executed under the Graphite simulator (Table 2). This repository
 * substitutes deterministic synthetic generators whose memory-system
 * behavior is tuned to the paper's published per-benchmark
 * characteristics (see docs/ARCHITECTURE.md "Workloads", and the
 * `table2` experiment for the mapping); the Workload interface also
 * supports file-based traces (trace_file.hh) and custom generators
 * (see examples/).
 */

#ifndef LACC_WORKLOAD_WORKLOAD_HH
#define LACC_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace lacc {

/** One operation in a core's instruction stream. */
struct MemOp
{
    /** Operation kinds understood by the core model. */
    enum class Kind : std::uint8_t {
        Read,        //!< data load (addr)
        Write,       //!< data store (addr)
        IFetch,      //!< explicit instruction fetch (trace replay)
        Compute,     //!< count non-memory pipeline cycles
        Barrier,     //!< global barrier
        LockAcquire, //!< acquire lock lockId
        LockRelease, //!< release lock lockId
        Done,        //!< this core's stream is exhausted
    };

    Kind kind = Kind::Done;
    Addr addr = 0;
    std::uint32_t count = 1;  //!< Compute: cycles (= instructions)
    std::uint32_t lockId = 0;

    // Factories: the convenient way for generators and tests to emit
    // a stream (see Kind above for each op's meaning).
    static MemOp read(Addr a) { return {Kind::Read, a, 1, 0}; }
    static MemOp write(Addr a) { return {Kind::Write, a, 1, 0}; }
    static MemOp ifetch(Addr a) { return {Kind::IFetch, a, 1, 0}; }
    static MemOp compute(std::uint32_t cycles)
    {
        return {Kind::Compute, 0, cycles, 0};
    }
    static MemOp barrier() { return {Kind::Barrier, 0, 1, 0}; }
    static MemOp lockAcquire(std::uint32_t id)
    {
        return {Kind::LockAcquire, 0, 1, id};
    }
    static MemOp lockRelease(std::uint32_t id)
    {
        return {Kind::LockRelease, 0, 1, id};
    }
    static MemOp done() { return {Kind::Done, 0, 0, 0}; }
};

/** A multithreaded workload: one operation stream per core. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Workload name (for reports). */
    virtual const std::string &name() const = 0;

    /** Number of cores the workload expects. */
    virtual std::uint32_t numCores() const = 0;

    /** Number of distinct locks used (LockAcquire ids < this). */
    virtual std::uint32_t numLocks() const { return 0; }

    /**
     * Produce the next operation for @p core. Must keep returning
     * MemOp::done() after the stream ends. Barrier counts must match
     * across cores.
     */
    virtual MemOp next(CoreId core) = 0;

    /**
     * Size of the instruction footprint, in cache lines, walked by the
     * core model's ifetch engine (0 disables the walker; trace
     * workloads emit explicit IFetch ops instead).
     */
    virtual std::uint32_t iFootprintLines(CoreId core) const
    {
        (void)core;
        return 0;
    }

    /**
     * Approximate data footprint in bytes (0 = unknown). Used by the
     * system to pre-size the functional reference memory so big
     * workloads do not rehash it repeatedly; an estimate, not a
     * contract — accesses outside the footprint still work.
     */
    virtual std::uint64_t footprintBytes() const { return 0; }

    /**
     * Address of the cache line backing lock @p id. Lock transfers
     * generate real coherence traffic on this line.
     */
    virtual Addr
    lockAddr(std::uint32_t id) const
    {
        return (Addr{0xF} << 36) + static_cast<Addr>(id) * 64;
    }

    /** Base address of the instruction footprint region. */
    virtual Addr codeBase() const { return Addr{0xC0} << 36; }

    /**
     * Number of barrier *releases* that constitute cache warm-up.
     * After that many global barriers, the system resets all
     * statistics (caches and directories stay warm) and measurement
     * begins — the standard warm-up/measure discipline that the
     * paper's full-length Graphite runs achieve by sheer run length.
     */
    virtual std::uint32_t warmupBarriers() const { return 0; }
};

/**
 * Page-aligned bump allocator for laying out workload address spaces.
 * Distinct regions never share an OS page, so R-NUCA classification
 * (first-touch private vs shared) is determined by access pattern, not
 * by accidental page sharing.
 */
class AddressSpace
{
  public:
    explicit AddressSpace(std::uint32_t page_size,
                          Addr base = Addr{1} << 32)
        : pageSize_(page_size), next_(alignUp(base, page_size))
    {}

    /** Allocate @p bytes, page aligned; returns the region base. */
    Addr
    alloc(std::uint64_t bytes)
    {
        const Addr base = next_;
        next_ = alignUp(next_ + (bytes == 0 ? 1 : bytes), pageSize_);
        return base;
    }

    /** First unallocated address (test helper). */
    Addr top() const { return next_; }

  private:
    static Addr
    alignUp(Addr a, std::uint64_t align)
    {
        return (a + align - 1) / align * align;
    }

    std::uint32_t pageSize_;
    Addr next_;
};

} // namespace lacc

#endif // LACC_WORKLOAD_WORKLOAD_HH
