#include "protocol/protocol.hh"

#include <algorithm>

#include "dram/dram.hh"
#include "energy/model.hh"
#include "fault/injector.hh"
#include "rnuca/page_table.hh"
#include "rnuca/placement.hh"
#include "sim/config.hh"
#include "sim/functional.hh"
#include "sim/log.hh"
#include "sim/named_registry.hh"
#include "sim/stats.hh"
#include "system/tile.hh"

namespace lacc {

// ---------------------------------------------------------------------------
// L1Controller
// ---------------------------------------------------------------------------

void
L1Controller::access(CoreId c, Addr addr, bool is_write,
                     bool is_ifetch, bool charge_fetch_energy)
{
    Tile &tl = *ctx_.tiles[c];
    L1Cache &l1 = is_ifetch ? tl.l1i : tl.l1d;
    CacheStats &cs = is_ifetch ? tl.stats.l1i : tl.stats.l1d;
    const LineAddr line = ctx_.addr.lineOf(addr);
    const std::uint32_t word = ctx_.addr.wordOf(addr);

    if (is_ifetch) {
        if (charge_fetch_energy)
            ctx_.energy.addL1iAccess();
    } else {
        ctx_.energy.addL1dAccess();
    }
    if (is_write)
        ++cs.stores;
    else
        ++cs.loads;

    auto e = l1.find(line);
    const bool writable = e &&
                          (e.meta().state == L1State::Exclusive ||
                           e.meta().state == L1State::Modified);
    if (e && (!is_write || writable)) {
        // L1 hit. Writes to an E copy silently upgrade to M.
        if (is_write) {
            e.meta().state = L1State::Modified;
            const std::uint64_t v = ctx_.mem.nextValue(c);
            e.words()[word] = v;
            ctx_.mem.write(addr, v);
        } else {
            ctx_.mem.checkRead(addr, e.words()[word]);
        }
        e.setLastAccess(tl.now);
        if (e.meta().privateUtil < kPrivateUtilCap)
            ++e.meta().privateUtil;
        tl.stats.latency.compute += ctx_.cfg.l1Latency;
        tl.now += ctx_.cfg.l1Latency;
        return;
    }

    const bool upgrade = e &&
                         e.meta().state == L1State::Shared && is_write;
    if (!is_ifetch) {
        tl.stats.misses.record(
            tl.missTracker.classify(line, is_write, upgrade));
    }
    if (is_write)
        ++cs.storeMisses;
    else
        ++cs.loadMisses;

    // L1 set information communicated with the miss (§3.2/§3.3).
    const L1SetHint hint{l1.hasInvalidWay(line), l1.minLastAccess(line)};
    dir_.request(c, addr, is_write, is_ifetch, upgrade, hint);
}

bool
L1Controller::touchResidentIfetch(CoreId c, Addr addr)
{
    Tile &tl = *ctx_.tiles[c];
    auto e = tl.l1i.find(ctx_.addr.lineOf(addr));
    if (!e)
        return false;
    e.setLastAccess(tl.now);
    if (e.meta().privateUtil < kPrivateUtilCap)
        ++e.meta().privateUtil;
    ++tl.stats.l1i.loads;
    return true;
}

L1Cache::Entry
L1Controller::fill(CoreId c, bool is_ifetch, LineAddr line,
                   const std::uint64_t *words, L1State st, Cycle t)
{
    Tile &tl = *ctx_.tiles[c];
    L1Cache &l1 = is_ifetch ? tl.l1i : tl.l1d;
    auto victim = l1.victimFor(line);
    if (victim.valid())
        evict(c, is_ifetch, victim, t);

    victim.setValid(true);
    victim.setTag(line);
    victim.setLastAccess(t);
    victim.meta().state = st;
    victim.meta().privateUtil = 1; // §3.2: initialized to 1 on fill
    victim.fillWords(words);
    if (is_ifetch) {
        ++tl.stats.l1i.fills;
        ctx_.energy.addL1iFill();
    } else {
        ++tl.stats.l1d.fills;
        ctx_.energy.addL1dFill();
    }
    return victim;
}

void
L1Controller::applyUpgrade(CoreId c, bool is_ifetch, LineAddr line,
                           std::uint32_t word, std::uint64_t val)
{
    Tile &tl = *ctx_.tiles[c];
    L1Cache &l1 = is_ifetch ? tl.l1i : tl.l1d;
    auto le = l1.find(line);
    if (!le)
        panic("upgrade requester lost its line");
    le.meta().state = L1State::Modified;
    le.words()[word] = val;
    le.setLastAccess(tl.now);
    if (le.meta().privateUtil < kPrivateUtilCap)
        ++le.meta().privateUtil;
}

void
L1Controller::evict(CoreId c, bool is_ifetch, L1Cache::Entry victim,
                    Cycle t)
{
    Tile &tl = *ctx_.tiles[c];
    const LineAddr line = victim.tag();
    const std::uint32_t util = victim.meta().privateUtil;
    const bool was_m = victim.meta().state == L1State::Modified;

    const CoreId home = dir_.homeOf(line, c);
    ctx_.stats.evictionUtil.record(util);
    if (!is_ifetch)
        tl.missTracker.onEviction(line);
    (is_ifetch ? tl.stats.l1i : tl.stats.l1d).evictions++;

    // The core may still hold the line in its other L1 (a line both
    // ifetched and read as data); the directory must then keep
    // tracking it as a holder.
    const L1Cache &other = is_ifetch ? tl.l1d : tl.l1i;
    const bool still_holds = static_cast<bool>(other.find(line));

    // Eviction notice (fire-and-forget): the utilization counter rides
    // in the header (§3.6); a dirty line carries the data.
    Message notice{MsgKind::EvictNotice, c, home,
                   was_m ? MsgPayload::Line : MsgPayload::None};
    ctx_.net.send(notice, t);

    // The victim slot is overwritten only after the notice completes,
    // so handing its arena slice down by pointer is safe.
    dir_.evictionNotice(home, c, line, was_m, victim.words(), util,
                        still_holds);
}

DropResult
L1Controller::dropCopy(CoreId s, LineAddr line, L2Cache::Entry entry,
                       bool l2_eviction)
{
    Tile &st = *ctx_.tiles[s];
    DropResult res{};
    bool found = false;
    // A core can hold the same line in both its L1-D and L1-I (e.g.
    // an instruction line also read as data). The directory tracks
    // one holder entry per core, so a single invalidation must kill
    // every copy the core has.
    for (const bool is_i : {false, true}) {
        L1Cache *l1 = is_i ? &st.l1i : &st.l1d;
        auto e = l1->find(line);
        if (!e)
            continue;
        found = true;

        const std::uint32_t util = e.meta().privateUtil;
        const bool was_m = e.meta().state == L1State::Modified;
        if (was_m) {
            entry.fillWords(e.words());
            entry.meta().dirty = true;
            ++ctx_.stats.protocol.syncWritebacks;
        }

        ctx_.stats.invalidationUtil.record(util);
        if (!is_i) {
            if (l2_eviction)
                st.missTracker.onEviction(line); // inclusive capacity
            else
                st.missTracker.onInvalidation(line);
        }

        l1->invalidate(e);
        if (is_i) {
            ++st.stats.l1i.invalidationsRecv;
            ctx_.energy.addL1iTagOnly();
        } else {
            ++st.stats.l1d.invalidationsRecv;
            ctx_.energy.addL1dTagOnly();
        }
        res.util += util;
        res.wasModified |= was_m;
    }
    if (!found)
        panic("holder set mismatch: core %u has no copy of line"
              " %llx", s, static_cast<unsigned long long>(line));
    return res;
}

bool
L1Controller::downgradeCopy(CoreId owner, L2Cache::Entry entry)
{
    Tile &ot = *ctx_.tiles[owner];
    auto e = ot.l1d.find(entry.tag());
    if (!e)
        e = ot.l1i.find(entry.tag());
    if (!e)
        panic("owner mismatch on line %llx",
              static_cast<unsigned long long>(entry.tag()));

    const bool was_m = e.meta().state == L1State::Modified;
    if (was_m) {
        entry.fillWords(e.words());
        entry.meta().dirty = true;
        ctx_.energy.addL2Line();
    }
    e.meta().state = L1State::Shared; // downgrade; owner keeps its copy
    ctx_.energy.addL1dAccess();
    return was_m;
}

bool
L1Controller::dropOtherCopy(CoreId c, bool is_ifetch, LineAddr line)
{
    Tile &tl = *ctx_.tiles[c];
    L1Cache &other = is_ifetch ? tl.l1d : tl.l1i;
    auto e = other.find(line);
    if (!e)
        return false;
    if (e.meta().state == L1State::Modified)
        panic("stale dual copy of line %llx is Modified",
              static_cast<unsigned long long>(line));
    other.invalidate(e);
    if (is_ifetch)
        ctx_.energy.addL1dTagOnly();
    else
        ctx_.energy.addL1iTagOnly();
    return true;
}

// ---------------------------------------------------------------------------
// DirectoryController
// ---------------------------------------------------------------------------

DirectoryController::DirectoryController(const ProtocolContext &ctx,
                                         L1Controller &l1)
    : ctx_(ctx), l1_(l1), classifier_(LocalityClassifier::create(ctx.cfg)),
      overflowLimit_(overflowLimit(ctx.cfg))
{}

CoreId
DirectoryController::homeOf(LineAddr line, CoreId requester) const
{
    const auto *rec = ctx_.pageTable.lookup(ctx_.addr.pageOfLine(line));
    if (rec == nullptr)
        panic("home lookup before page classification (line %llx)",
              static_cast<unsigned long long>(line));
    return ctx_.placement.home(line, *rec, requester);
}

L2Cache::Entry
DirectoryController::l2FindOrFill(CoreId home, LineAddr line,
                                  Cycle t_arr, Cycle &t_ready,
                                  Cycle &waiting, Cycle &offchip)
{
    Tile &ht = *ctx_.tiles[home];
    if (auto e = ht.l2.find(line)) {
        const Cycle t2 = std::max(t_arr, e.meta().busyUntil);
        waiting = t2 - t_arr;
        offchip = 0;
        t_ready = t2 + ctx_.cfg.l2Latency;
        return e;
    }

    // L2 miss: fetch the line from DRAM through the line's memory
    // controller, then install it (evicting an L2 victim if needed).
    waiting = 0;
    const Cycle t_tag = t_arr + ctx_.cfg.l2Latency;
    ctx_.energy.addL2TagOnly();
    const CoreId ctrl = ctx_.dram.controllerTile(line);
    Message fetch{MsgKind::DramFetchReq, home, ctrl, MsgPayload::None};
    const Cycle t_req = ctx_.net.send(fetch, t_tag);
    const Cycle t_data = ctx_.dram.access(line, t_req);
    Message data{MsgKind::DramFetchData, ctrl, home, MsgPayload::Line};
    const Cycle t_back = ctx_.net.send(data, t_data);
    offchip = t_back - t_tag;
    ++ctx_.stats.protocol.dramFetches;

    auto victim = ht.l2.victimFor(line);
    if (victim.valid())
        l2Evict(home, victim, t_back);

    victim.setValid(true);
    victim.setTag(line);
    victim.setLastAccess(t_back);
    // Every fill writes the whole entry — first use of the slot or a
    // refill alike — and allocates nothing.
    L2Meta &meta = victim.meta();
    meta.holders.clear();
    meta.busyUntil = t_back;
    meta.overflowed = false;
    meta.dstate = DirState::Uncached;
    meta.dirty = false;
    classifier_->resetRecord(victim.aux());
    ctx_.dram.readLine(line, victim.words());
    ctx_.energy.addL2Line(); // fill write
    ++ctx_.stats.l2.fills;

    t_ready = t_back;
    return victim;
}

void
DirectoryController::applySoftFaults(CoreId c, CoreId home,
                                     LineAddr line,
                                     L2Cache::Entry entry, Cycle t,
                                     Cycle &corr, Cycle &scrub)
{
    FaultInjector &inj = *ctx_.fault;
    const FaultPlan &plan = inj.plan();
    const std::uint32_t line_bits = ctx_.cfg.lineSize * 8;

    // ---- Requester's resident L1 image (if any) -----------------------
    Tile &rt = *ctx_.tiles[c];
    L1Cache::Entry l1e = rt.l1d.find(line);
    if (!l1e)
        l1e = rt.l1i.find(line);
    if (l1e && l1e.valid()) {
        const SoftFault f = inj.rollSoft(FaultUnit::L1Data, line, t);
        if (f != SoftFault::None && plan.protectL1) {
            ctx_.energy.addL1dAccess();
            if (f == SoftFault::Single) {
                inj.noteCorrected();
                corr += plan.eccCorrectLatency;
            } else if (l1e.meta().state == L1State::Modified) {
                // The only up-to-date copy is gone.
                inj.noteDetected();
                inj.unrecoverable("L1 Modified-line double-bit", line);
            } else {
                // Clean copy: discard and refill from the home slice,
                // which this very transaction has open.
                inj.noteDetected();
                inj.noteScrub();
                l1e.fillWords(entry.words());
                scrub += ctx_.cfg.l2Latency;
                ctx_.energy.addL2Line();
            }
        } else if (f != SoftFault::None) {
            // Unprotected: a real flip the functional oracle must
            // catch when the word is next read or written back.
            const std::uint32_t b = inj.strikeBit(line, t, line_bits);
            l1e.words()[b / 64] ^= std::uint64_t{1} << (b % 64);
            inj.noteSilent();
        }
    }

    // ---- Home slice's L2 line data ------------------------------------
    {
        const SoftFault f = inj.rollSoft(FaultUnit::L2Data, line, t);
        if (f != SoftFault::None && plan.protectL2) {
            if (f == SoftFault::Single) {
                inj.noteCorrected();
                corr += plan.eccCorrectLatency;
                ctx_.energy.addL2Word();
            } else if (entry.meta().dirty) {
                // DRAM has a stale image; the dirty data is lost.
                inj.noteDetected();
                inj.unrecoverable("L2 dirty-line double-bit", line);
            } else {
                // Clean line: scrub from DRAM through the line's
                // memory controller (same traffic as an L2 miss fill;
                // the data already matches DRAM, so no refill write to
                // the functional image is needed).
                inj.noteDetected();
                inj.noteScrub();
                const CoreId ctrl = ctx_.dram.controllerTile(line);
                Message fetch{MsgKind::DramFetchReq, home, ctrl,
                              MsgPayload::None};
                const Cycle t_req = ctx_.net.send(fetch, t);
                const Cycle t_data = ctx_.dram.access(line, t_req);
                Message data{MsgKind::DramFetchData, ctrl, home,
                             MsgPayload::Line};
                const Cycle t_back = ctx_.net.send(data, t_data);
                scrub += t_back - t;
                ++ctx_.stats.protocol.dramFetches;
                ctx_.energy.addL2Line();
            }
        } else if (f != SoftFault::None) {
            const std::uint32_t b = inj.strikeBit(line, t, line_bits);
            entry.words()[b / 64] ^= std::uint64_t{1} << (b % 64);
            inj.noteSilent();
        }
    }

    // ---- Directory metadata (L2Meta), always under SECDED -------------
    {
        const SoftFault f = inj.rollSoft(FaultUnit::DirMeta, line, t);
        if (f != SoftFault::None) {
            ctx_.energy.addDirAccess();
            if (f == SoftFault::Single) {
                inj.noteCorrected();
                corr += plan.eccCorrectLatency;
            } else {
                // Sharer tracking cannot be rebuilt from any other
                // on-chip structure.
                inj.noteDetected();
                inj.unrecoverable("directory metadata double-bit",
                                  line);
            }
        }
    }
}

void
DirectoryController::request(CoreId c, Addr addr, bool is_write,
                             bool is_ifetch, bool upgrade,
                             const L1SetHint &hint)
{
    Tile &rt = *ctx_.tiles[c];
    const LineAddr line = ctx_.addr.lineOf(addr);
    const std::uint32_t word = ctx_.addr.wordOf(addr);

    // R-NUCA classification and home lookup.
    const auto res =
        ctx_.pageTable.access(ctx_.addr.pageOf(addr), c, is_ifetch);
    if (res.rehomed && ctx_.placement.enabled())
        flushPage(res.oldOwner, ctx_.addr.pageOf(addr), rt.now);
    const CoreId home = ctx_.placement.home(line, res.record, c);

    const Cycle t_inj = rt.now + ctx_.cfg.l1Latency;
    rt.stats.latency.compute += ctx_.cfg.l1Latency;

    // Requests always carry the line offset; writes carry the word.
    Message req{is_write
                    ? (upgrade ? MsgKind::UpgradeReq : MsgKind::ExReq)
                    : MsgKind::ShReq,
                c, home,
                is_write ? MsgPayload::Word : MsgPayload::None};
    const Cycle t1 = ctx_.net.send(req, t_inj);

    Cycle t_ready = 0, waiting = 0, offchip = 0;
    L2Cache::Entry entry =
        l2FindOrFill(home, line, t1, t_ready, waiting, offchip);
    entry.setLastAccess(t_ready);
    ctx_.energy.addDirAccess();

    if (ctx_.fault != nullptr) {
        // Soft-error strikes against the structures this transaction
        // touches. Corrections extend the per-line waiting window,
        // scrub refetches bill as off-chip time; bumping t_ready keeps
        // the telescoped latency attribution below exact.
        Cycle corr = 0, scrub = 0;
        applySoftFaults(c, home, line, entry, t_ready, corr, scrub);
        waiting += corr;
        offchip += scrub;
        t_ready += corr + scrub;
    }

    const Mode mode = upgrade
                          ? Mode::Private
                          : classifier_->classify(entry.aux(), c);
    const RemoteAccessContext rctx{t_ready, hint.hasInvalidWay,
                                   hint.minLastAccess};

    Cycle t_shar = t_ready;
    bool granted = false;

    if (is_write) {
        const std::uint64_t val = ctx_.mem.nextValue(c);
        // A write resets the remote utilization of all other remote
        // sharers (§3.2) and invalidates all private sharers.
        classifier_->onWriteByOther(entry.aux(), c);
        t_shar = invalidateHolders(home, entry, c, t_ready);

        bool promote = false;
        if (mode == Mode::Remote) {
            promote =
                classifier_->onRemoteAccess(entry.aux(), c, rctx);
            if (promote)
                ++ctx_.stats.protocol.promotions;
        }

        if (mode == Mode::Private || promote) {
            granted = true;
            if (upgrade) {
                l1_.applyUpgrade(c, is_ifetch, line, word, val);
                ++ctx_.stats.protocol.upgradeGrants;
                ctx_.energy.addL2TagOnly();
            } else {
                L1Cache::Entry fe =
                    l1_.fill(c, is_ifetch, line, entry.words(),
                             L1State::Modified, t_shar);
                fe.words()[word] = val;
                ++ctx_.stats.protocol.privateWriteGrants;
                ctx_.energy.addL2Line();
                ++ctx_.stats.l2.loads;
            }
            // A dual-copy line leaves a stale copy in the requester's
            // other L1 after the write: drop it locally.
            l1_.dropOtherCopy(c, is_ifetch, line);
            ctx_.mem.write(addr, val);
            // invalidateHolders left at most c itself: the writer is
            // now the sole holder, tracked exactly again.
            entry.meta().holders.insert(c);
            entry.meta().overflowed = false;
            entry.meta().dstate = DirState::Exclusive;
            classifier_->onPrivateGrant(entry.aux(), c, t_ready);
        } else {
            // Remote word write: stored at the L2 home (§3.2).
            entry.words()[word] = val;
            entry.meta().dirty = true;
            ctx_.mem.write(addr, val);
            ++ctx_.stats.protocol.remoteWrites;
            ++ctx_.stats.l2.stores;
            ctx_.energy.addL2Word();
            if (!is_ifetch)
                rt.missTracker.onRemoteAccess(line);
            // A remote writer keeps no private copy: its stale copy
            // in the other L1 (dual-copy line) must go too.
            if (l1_.dropOtherCopy(c, is_ifetch, line)) {
                entry.meta().dropHolder(c);
                if (entry.meta().holders.empty())
                    entry.meta().dstate = DirState::Uncached;
            }
        }
    } else {
        bool promote = false;
        if (mode == Mode::Remote) {
            promote =
                classifier_->onRemoteAccess(entry.aux(), c, rctx);
            if (promote)
                ++ctx_.stats.protocol.promotions;
        }

        if (mode == Mode::Private || promote) {
            granted = true;
            if (entry.meta().dstate == DirState::Exclusive) {
                if (entry.meta().owner() != c) {
                    t_shar = syncWriteback(home, entry, t_ready);
                } else {
                    // The requester itself owns the line through its
                    // other L1 (dual-copy line): merge its M data
                    // locally — same tile, no network round trip —
                    // before filling from the L2 copy.
                    l1_.downgradeCopy(c, entry);
                    entry.meta().dstate = DirState::Shared;
                }
            }
            const L1State st = entry.meta().holders.empty()
                                   ? L1State::Exclusive
                                   : L1State::Shared;
            l1_.fill(c, is_ifetch, line, entry.words(), st, t_shar);
            ctx_.mem.checkRead(addr, entry.words()[word]);
            // A dual-copy core is one holder, not two.
            entry.meta().addHolder(c, overflowLimit_);
            entry.meta().dstate = st == L1State::Exclusive
                                      ? DirState::Exclusive
                                      : DirState::Shared;
            classifier_->onPrivateGrant(entry.aux(), c, t_ready);
            ++ctx_.stats.protocol.privateReadGrants;
            ctx_.energy.addL2Line();
            ++ctx_.stats.l2.loads;
        } else {
            // Remote word read at the L2 home.
            if (entry.meta().dstate == DirState::Exclusive)
                t_shar = syncWriteback(home, entry, t_ready);
            ctx_.mem.checkRead(addr, entry.words()[word]);
            ++ctx_.stats.protocol.remoteReads;
            ++ctx_.stats.l2.loads;
            ctx_.energy.addL2Word();
            if (!is_ifetch)
                rt.missTracker.onRemoteAccess(line);
        }
    }

    // Reply: full line for a grant (header only for an upgrade), one
    // word for a remote read, bare ack for a remote write.
    Message reply{MsgKind::LineGrant, home, c, MsgPayload::None};
    if (granted) {
        reply.kind = upgrade ? MsgKind::UpgradeGrant : MsgKind::LineGrant;
        reply.payload =
            upgrade ? MsgPayload::None : MsgPayload::Line;
    } else {
        reply.kind = is_write ? MsgKind::WordAck : MsgKind::WordData;
        reply.payload =
            is_write ? MsgPayload::None : MsgPayload::Word;
    }
    const Cycle t5 = ctx_.net.send(reply, t_shar);
    entry.meta().busyUntil = t_shar;

    // Completion-time attribution (§4.4); the stage times telescope so
    // the components sum exactly to the transaction latency.
    rt.stats.latency.l1ToL2 +=
        (t1 - t_inj) + ctx_.cfg.l2Latency + (t5 - t_shar);
    rt.stats.latency.l2Waiting += waiting;
    rt.stats.latency.offChip += offchip;
    rt.stats.latency.l2Sharers += t_shar - t_ready;
    rt.now = t5;
}

Cycle
DirectoryController::dropAndAck(CoreId s, CoreId home,
                                L2Cache::Entry entry,
                                bool l2_eviction, Cycle t_arr)
{
    const DropResult dr =
        l1_.dropCopy(s, entry.tag(), entry, l2_eviction);
    if (!l2_eviction) {
        // The locality state dies with an L2 eviction, so only a
        // protocol invalidation classifies the removal (§3.2).
        const Mode m = classifier_->onPrivateRemoval(
            entry.aux(), s, dr.util, RemovalKind::Invalidation);
        if (m == Mode::Remote)
            ++ctx_.stats.protocol.demotions;
    }
    // Ack: header, plus the line for an M write-back.
    Message ack{MsgKind::InvalAck, s, home,
                dr.wasModified ? MsgPayload::Line : MsgPayload::None};
    return ctx_.net.send(ack, t_arr + 1);
}

Cycle
DirectoryController::unicastInvalidation(CoreId s, CoreId home,
                                         L2Cache::Entry entry,
                                         bool l2_eviction, Cycle t)
{
    Message inval{MsgKind::InvalReq, home, s, MsgPayload::None};
    const Cycle t_arr = ctx_.net.send(inval, t);
    ++ctx_.stats.protocol.invalidationsSent;
    return dropAndAck(s, home, entry, l2_eviction, t_arr);
}

Cycle
DirectoryController::fanOutInvalidations(CoreId home, L2Cache::Entry entry,
                                         const HolderVec &targets, Cycle t)
{
    Cycle t_end = t;
    if (!entry.meta().overflowed) {
        for (const CoreId s : targets)
            t_end = std::max(t_end,
                             unicastInvalidation(s, home, entry, false, t));
        return t_end;
    }

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
    for (const CoreId s : targets)
        t_end = std::max(t_end, dropAndAck(s, home, entry, false,
                                           bcastArrivals_[s]));
    return t_end;
}

Cycle
DirectoryController::invalidateHolders(CoreId home,
                                       L2Cache::Entry entry,
                                       CoreId except, Cycle t)
{
    // Snapshot the holder set into the reusable scratch (grant order
    // preserved — fan-out order is modeled timing).
    invalTargets_ = entry.meta().holders;
    invalTargets_.erase(except);
    if (invalTargets_.empty())
        return t;

    const Cycle t_end = fanOutInvalidations(home, entry, invalTargets_,
                                            t);

    L2Meta &meta = entry.meta();
    const bool except_held = meta.holders.contains(except);
    meta.holders.clear();
    if (except_held) {
        // Only the requester's (upgrade) copy remains, in state S; the
        // caller promotes it to Exclusive.
        meta.holders.insert(except);
        meta.dstate = DirState::Shared;
    } else {
        meta.overflowed = false;
        meta.dstate = DirState::Uncached;
    }
    return t_end;
}

Cycle
DirectoryController::syncWriteback(CoreId home, L2Cache::Entry entry,
                                   Cycle t)
{
    const CoreId o = entry.meta().owner();
    if (o == kInvalidCore)
        panic("syncWriteback without an owner");

    Message req{MsgKind::DowngradeReq, home, o, MsgPayload::None};
    const Cycle t_req = ctx_.net.send(req, t);
    const bool was_m = l1_.downgradeCopy(o, entry);
    Message ack{MsgKind::DowngradeAck, o, home,
                was_m ? MsgPayload::Line : MsgPayload::None};
    const Cycle t_ack = ctx_.net.send(ack, t_req + 1);

    entry.meta().dstate = DirState::Shared;
    ++ctx_.stats.protocol.syncWritebacks;
    return t_ack;
}

void
DirectoryController::evictionNotice(CoreId home, CoreId c,
                                    LineAddr line, bool was_modified,
                                    const std::uint64_t *words,
                                    std::uint32_t util,
                                    bool still_holds)
{
    auto he = ctx_.tiles[home]->l2.find(line);
    if (!he)
        panic("inclusion violation: L1 evict of line %llx not in home"
              " %u", static_cast<unsigned long long>(line), home);

    if (!still_holds) {
        // Under Exclusive c was the sole holder, so only Shared
        // survives a non-empty set.
        he.meta().dropHolder(c);
        if (he.meta().holders.empty())
            he.meta().dstate = DirState::Uncached;
    }
    if (was_modified) {
        he.fillWords(words);
        he.meta().dirty = true;
        ++ctx_.stats.protocol.dirtyWritebacks;
        ctx_.energy.addL2Line();
    } else {
        ctx_.energy.addL2TagOnly();
    }
    ctx_.energy.addDirAccess();

    const Mode m = classifier_->onPrivateRemoval(
        he.aux(), c, util, RemovalKind::Eviction);
    if (m == Mode::Remote)
        ++ctx_.stats.protocol.demotions;
}

void
DirectoryController::l2Evict(CoreId home, L2Cache::Entry victim,
                             Cycle t)
{
    const LineAddr line = victim.tag();
    // Not fanOutInvalidations: this unicasts to each holder even when
    // the entry has overflowed, where a real ACKwise_p directory would
    // broadcast. A modelling choice that the goldens pin
    // (ARCHITECTURE, "Life of a memory access", step 3). Nothing here
    // changes the holder set; the invalidate() below resets it.
    for (const CoreId s : victim.meta().holders)
        unicastInvalidation(s, home, victim, true, t);

    if (victim.meta().dirty) {
        ctx_.dram.writeLine(line, victim.words());
        const CoreId ctrl = ctx_.dram.controllerTile(line);
        Message wb{MsgKind::DramWriteback, home, ctrl,
                   MsgPayload::Line};
        const Cycle tw = ctx_.net.send(wb, t);
        ctx_.dram.access(line, tw);
        ++ctx_.stats.protocol.dramWritebacks;
        ctx_.energy.addL2Line();
    }
    ++ctx_.stats.l2.evictions;
    ++ctx_.stats.protocol.l2Evictions;
    ctx_.tiles[home]->l2.invalidate(victim);
}

void
DirectoryController::flushPage(CoreId old_home, PageAddr page,
                               Cycle t)
{
    const std::uint32_t lines_per_page = ctx_.addr.linesPerPage();
    const LineAddr first = ctx_.addr.firstLineOf(page);
    Tile &ht = *ctx_.tiles[old_home];
    for (std::uint32_t i = 0; i < lines_per_page; ++i) {
        if (auto e = ht.l2.find(first + i)) {
            l2Evict(old_home, e, t);
            ++ctx_.stats.protocol.rehomeFlushes;
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol names
// ---------------------------------------------------------------------------

namespace {

/**
 * The single registration point: a directory organization is one
 * entry here, plus its DirectoryKind and overflow limit
 * (overflowLimit). Lookup and diagnostics come from the shared
 * named-registry helpers.
 */
struct ProtocolEntry
{
    const char *name;
    DirectoryKind kind;
};

const ProtocolEntry kProtocols[] = {
    {"lacc", DirectoryKind::Ackwise},
    {"fullmap", DirectoryKind::FullMap},
};

} // namespace

const std::vector<std::string> &
protocolNames()
{
    static const std::vector<std::string> names =
        registry::entryNames(kProtocols);
    return names;
}

const char *
protocolNameFor(const SystemConfig &cfg)
{
    return registry::entryForKind(kProtocols, cfg.directoryKind,
                                  "protocol")
        .name;
}

void
applyProtocolName(SystemConfig &cfg, const std::string &name)
{
    cfg.directoryKind =
        registry::entryForNameOrFatal(kProtocols, "protocol", name)
            .kind;
}

} // namespace lacc
