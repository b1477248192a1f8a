#include "protocol/messages.hh"

#include <algorithm>

#include "fault/injector.hh"

namespace lacc {

const char *
msgKindName(MsgKind k)
{
    switch (k) {
      case MsgKind::ShReq: return "ShReq";
      case MsgKind::ExReq: return "ExReq";
      case MsgKind::UpgradeReq: return "UpgradeReq";
      case MsgKind::EvictNotice: return "EvictNotice";
      case MsgKind::LineGrant: return "LineGrant";
      case MsgKind::UpgradeGrant: return "UpgradeGrant";
      case MsgKind::WordData: return "WordData";
      case MsgKind::WordAck: return "WordAck";
      case MsgKind::InvalReq: return "InvalReq";
      case MsgKind::InvalAck: return "InvalAck";
      case MsgKind::DowngradeReq: return "DowngradeReq";
      case MsgKind::DowngradeAck: return "DowngradeAck";
      case MsgKind::DramFetchReq: return "DramFetchReq";
      case MsgKind::DramFetchData: return "DramFetchData";
      case MsgKind::DramWriteback: return "DramWriteback";
      case MsgKind::BarrierArrive: return "BarrierArrive";
      case MsgKind::BarrierRelease: return "BarrierRelease";
      case MsgKind::Nack: return "Nack";
      default: return "?";
    }
}

/*
 * Retransmit state machine (ARCHITECTURE.md "Fault injection &
 * recovery"). Each attempt traverses the full route and is charged
 * its full flit/energy cost — an upper bound for drops, which in a
 * real NoC may die mid-route. A *dropped* message is detected only by
 * the source's timeout, so the resend departs one exponentially
 * backed-off timeout after the would-be arrival. A *corrupted*
 * message reaches the destination, fails its CRC, and is NACKed with
 * a header-only reply; the source resends on NACK receipt. The NACK
 * itself rides the faulty fabric — if it is lost or mangled, the
 * source falls back to the same timeout it would have used for a
 * drop. The retry budget caps total attempts; exhausting it is a
 * modeled unrecoverable transport failure (RunAbort).
 */
Cycle
MessageTransport::sendWithRetry(Message &m, Cycle depart)
{
    const FaultPlan &plan = fault_->plan();
    Cycle t = depart;
    for (std::uint32_t attempt = 0;; ++attempt) {
        const Cycle arr = net_.unicast(m.src, m.dst, m.flits, t);
        bool drop = false;
        if (!net_.consumeTraversalFault(drop))
            return arr;
        if (attempt + 1 >= plan.retryBudget)
            fault_->budgetExhausted(m.src, m.dst, attempt + 1);
        Cycle retry = arr + (plan.retryTimeout << attempt);
        if (!drop) {
            Message nack;
            nack.kind = MsgKind::Nack;
            nack.src = m.dst;
            nack.dst = m.src;
            nack.payload = MsgPayload::None;
            nack.flits = flitsOf(nack);
            const Cycle nack_arr =
                net_.unicast(nack.src, nack.dst, nack.flits, arr);
            bool nack_drop = false;
            if (!net_.consumeTraversalFault(nack_drop))
                retry = std::max(nack_arr, arr + 1);
            fault_->noteNack();
        }
        fault_->noteRetransmit();
        t = retry;
    }
}

/*
 * Conservative tree recovery: a fault on *any* tree link invalidates
 * the whole delivery (per-branch repair would need per-destination
 * sequence tracking the header does not model), so the source
 * re-broadcasts the entire tree after a backed-off timeout. With many
 * receivers there is no single NACK channel either, so corrupt
 * deliveries are folded into the same timeout path as drops.
 */
Cycle
MessageTransport::broadcastWithRetry(Message &m, Cycle depart,
                                     std::vector<Cycle> &arrivals)
{
    const FaultPlan &plan = fault_->plan();
    Cycle t = depart;
    for (std::uint32_t attempt = 0;; ++attempt) {
        const Cycle arr = net_.broadcast(m.src, m.flits, t, arrivals);
        bool drop = false;
        if (!net_.consumeTraversalFault(drop))
            return arr;
        if (attempt + 1 >= plan.retryBudget)
            fault_->budgetExhausted(m.src, m.src, attempt + 1);
        fault_->noteRetransmit();
        t = arr + (plan.retryTimeout << attempt);
    }
}

} // namespace lacc
