#include "protocol/lacc.hh"

#include <algorithm>

#include "sim/stats.hh"

namespace lacc {

Cycle
AckwiseDirectory::fanOutInvalidations(CoreId home, L2Cache::Entry entry,
                                      const HolderVec &targets,
                                      Cycle t)
{
    if (!entry.meta().sharers.overflowed)
        return BaseDirectoryController::fanOutInvalidations(home, entry,
                                                            targets, t);

    // ACKwise overflow: identities unknown, broadcast instead of
    // per-sharer unicasts; acks only from the actual sharers (§3.1).
    // On fabrics without native broadcast the transport pays the
    // serialized-unicast emulation here — the topology-sensitivity
    // experiment measures exactly that. The arrival buffer is a
    // reusable member (the network broadcast re-assigns it to
    // numCores each call without reallocating).
    Message bcast{MsgKind::InvalReq, home, home, MsgPayload::None};
    ctx_.net.broadcast(bcast, t, bcastArrivals_);
    ++ctx_.stats.protocol.broadcastInvals;
    Cycle t_end = t;
    for (const CoreId s : targets)
        t_end = std::max(t_end, dropAndAck(s, home, entry, false,
                                           bcastArrivals_[s]));
    return t_end;
}

} // namespace lacc
