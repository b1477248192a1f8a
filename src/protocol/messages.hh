/**
 * @file
 * Explicit coherence-message descriptors (§3.1-§3.2 traffic classes).
 *
 * Every on-chip transfer the protocol performs — requests, replies,
 * invalidations and their acknowledgements, eviction notices, DRAM
 * traffic, and barrier messages — is described as a Message: a kind, a
 * source/destination tile, and a payload class (none / one word / one
 * line). The MessageTransport turns the description into interconnect
 * traffic: it derives the flit count from the configured header and
 * payload widths and charges router/link energy through the
 * NetworkModel (net/network.hh — the mesh by default, or whichever
 * fabric SystemConfig::networkKind selects). Timing and energy
 * accounting are therefore driven by the message description, not by
 * ad-hoc flit arithmetic at each protocol call site.
 */

#ifndef LACC_PROTOCOL_MESSAGES_HH
#define LACC_PROTOCOL_MESSAGES_HH

#include <cstdint>
#include <vector>

#include "net/network.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace lacc {

class FaultInjector;

/** Coherence message kinds exchanged by the controllers. */
enum class MsgKind : std::uint8_t {
    // ---- Core -> home-directory requests --------------------------------
    ShReq,        //!< read miss (shared request)
    ExReq,        //!< write miss (exclusive request; carries the word)
    UpgradeReq,   //!< S->M upgrade (carries the word)
    EvictNotice,  //!< fire-and-forget L1 eviction (utilization in header)

    // ---- Home-directory -> core replies ---------------------------------
    LineGrant,    //!< private grant: full line copy
    UpgradeGrant, //!< upgrade grant: no data transfer
    WordData,     //!< remote word read serviced at the L2 home
    WordAck,      //!< remote word write acknowledgement

    // ---- Directory -> sharer control, and the acks ----------------------
    InvalReq,     //!< invalidate a private copy (unicast or broadcast)
    InvalAck,     //!< ack; carries the line when the copy was dirty
    DowngradeReq, //!< owner downgrade (sync write-back request)
    DowngradeAck, //!< ack; carries the line when the copy was dirty

    // ---- Home <-> memory controller -------------------------------------
    DramFetchReq,  //!< L2 miss request to the line's controller tile
    DramFetchData, //!< line fill from DRAM
    DramWriteback, //!< dirty L2 victim to DRAM

    // ---- Synchronization (message-based barrier) ------------------------
    BarrierArrive,
    BarrierRelease,

    // ---- Transport-level recovery (fault/injector.hh) --------------------
    Nack, //!< CRC-failure reject; sender retransmits on receipt
};

/** Payload carried on top of the header flits. */
enum class MsgPayload : std::uint8_t {
    None, //!< header only
    Word, //!< one 64-bit word
    Line, //!< a full cache line
};

/** Human-readable name for a MsgKind (logging / debug). */
const char *msgKindName(MsgKind k);

/**
 * One coherence message. Built by a controller with kind, endpoints,
 * and payload; the flit count is filled by the transport when the
 * message is sent.
 */
struct Message
{
    MsgKind kind = MsgKind::ShReq;
    CoreId src = 0;
    CoreId dst = 0;
    MsgPayload payload = MsgPayload::None;

    std::uint32_t flits = 0; //!< header + payload; set by the transport
};

/**
 * Sends Messages over the interconnect. Thin stateless adapter: flit
 * sizing comes from the SystemConfig, timing/contention/energy from
 * the NetworkModel (which charges router and link energy per
 * flit-hop).
 */
class MessageTransport
{
  public:
    MessageTransport(const SystemConfig &cfg, NetworkModel &net)
        : cfg_(cfg), net_(net)
    {}

    /** Flits a payload class occupies on the wire. */
    std::uint32_t
    payloadFlits(MsgPayload p) const
    {
        switch (p) {
          case MsgPayload::Word: return cfg_.wordFlits;
          case MsgPayload::Line: return cfg_.lineFlits;
          default: return 0;
        }
    }

    /** Total flits of a message (header + payload). */
    std::uint32_t
    flitsOf(const Message &m) const
    {
        return cfg_.headerFlits + payloadFlits(m.payload);
    }

    /**
     * Send @p m as a unicast departing at @p depart; fills in the flit
     * count. @return arrival time of the last flit at m.dst.
     *
     * Under FaultPlan none the entire fault-layer cost is the one
     * untaken branch below (pinned by bench_micro); with faults armed
     * the out-of-line retransmit path takes over.
     */
    Cycle
    send(Message &m, Cycle depart)
    {
        m.flits = flitsOf(m);
        if (fault_ == nullptr)
            return net_.unicast(m.src, m.dst, m.flits, depart);
        return sendWithRetry(m, depart);
    }

    /**
     * Broadcast @p m from m.src to all tiles (ACKwise overflow
     * invalidations, barrier release) — a single injection on fabrics
     * with native broadcast, serialized unicasts otherwise. Per-tile
     * arrival times are written to @p arrivals.
     * @return the maximum arrival time.
     */
    Cycle
    broadcast(Message &m, Cycle depart, std::vector<Cycle> &arrivals)
    {
        m.flits = flitsOf(m);
        if (fault_ == nullptr)
            return net_.broadcast(m.src, m.flits, depart, arrivals);
        return broadcastWithRetry(m, depart, arrivals);
    }

    /** Arm the lossy-link recovery path (Multicore wiring). */
    void setFaultInjector(FaultInjector *fi) { fault_ = fi; }

  private:
    Cycle sendWithRetry(Message &m, Cycle depart);
    Cycle broadcastWithRetry(Message &m, Cycle depart,
                             std::vector<Cycle> &arrivals);

    const SystemConfig &cfg_;
    NetworkModel &net_;
    FaultInjector *fault_ = nullptr; //!< null under FaultPlan none
};

} // namespace lacc

#endif // LACC_PROTOCOL_MESSAGES_HH
