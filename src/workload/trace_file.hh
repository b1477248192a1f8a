/**
 * @file
 * File-based trace workloads.
 *
 * A simple line-oriented text format so users can drive the simulator
 * with traces captured elsewhere (e.g. Pin tools), mirroring how the
 * paper drives Graphite with real applications:
 *
 *     # comment
 *     trace <numCores> <numLocks>
 *     <core> r <hex-addr>      data read
 *     <core> w <hex-addr>      data write
 *     <core> f <hex-addr>      instruction fetch
 *     <core> c <cycles>        compute
 *     <core> b                 barrier
 *     <core> a <lockId>        lock acquire
 *     <core> l <lockId>        lock release
 */

#ifndef LACC_WORKLOAD_TRACE_FILE_HH
#define LACC_WORKLOAD_TRACE_FILE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "workload/workload.hh"

namespace lacc {

/** Workload replaying per-core operation vectors. */
class TraceWorkload final : public Workload
{
  public:
    /** Build from already-parsed per-core streams. */
    TraceWorkload(std::string name,
                  std::vector<std::vector<MemOp>> streams,
                  std::uint32_t num_locks = 0);

    /**
     * Parse the text format from a stream. Parsing is strict:
     * partially-numeric core ids / addresses / counts, out-of-range
     * ids, unknown op tags, duplicate headers, and trailing garbage
     * all fatal() with the offending line number — malformed traces
     * are never silently skipped or misread. A '#' token comments
     * out the rest of a line (full-line comments also supported).
     */
    static TraceWorkload parse(std::istream &in, std::string name);

    /** Load from a file path. */
    static TraceWorkload load(const std::string &path);

    /** Serialize a workload back to the text format (round-trips). */
    void save(std::ostream &out) const;

    const std::string &name() const override { return name_; }
    std::uint32_t
    numCores() const override
    {
        return static_cast<std::uint32_t>(streams_.size());
    }
    std::uint32_t numLocks() const override { return numLocks_; }
    MemOp next(CoreId core) override;

    /** Remaining (unconsumed) ops of a core (test helper). */
    std::size_t remaining(CoreId core) const;

    /**
     * The underlying per-core op streams. Workloads are single-use
     * (next() consumes); re-running a trace — the verification
     * harness replays every corpus entry under several protocols —
     * means constructing a fresh TraceWorkload from these streams.
     */
    const std::vector<std::vector<MemOp>> &streams() const
    {
        return streams_;
    }

  private:
    std::string name_;
    std::vector<std::vector<MemOp>> streams_;
    std::vector<std::size_t> pos_;
    std::uint32_t numLocks_;
};

} // namespace lacc

#endif // LACC_WORKLOAD_TRACE_FILE_HH
