#include "verify/enumerate.hh"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <optional>
#include <unordered_set>

#include "net/factory.hh"
#include "protocol/factory.hh"
#include "sim/log.hh"
#include "system/multicore.hh"
#include "verify/invariants.hh"

namespace lacc {
namespace verify {

namespace {

/** The enumerated line pool: 16 lines apart = same direct-mapped L1
 * set (16 sets), same 4 KiB page (1024-byte stride). */
constexpr Addr kBase = Addr{1} << 32;
constexpr Addr kLineStride = 16 * 64;

/** One access event: (core, line index, kind). */
struct Event
{
    std::uint8_t core;
    std::uint8_t line;
    std::uint8_t kind; //!< 0 = read, 1 = write, 2 = ifetch
};

void
applyEvent(Multicore &m, const Event &e)
{
    m.testAccess(static_cast<CoreId>(e.core), enumAddr(e.line),
                 e.kind == 1, e.kind == 2);
}

/** One-byte encoding of a core id; kInvalidCore becomes 0xFF. */
unsigned
coreByte(CoreId c)
{
    return c == kInvalidCore ? 0xFFu : c;
}

std::string
renderPath(const std::vector<Event> &path)
{
    std::string s;
    for (const Event &e : path) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "core %u %c %llx\n", e.core,
                      "rwf"[e.kind],
                      static_cast<unsigned long long>(enumAddr(e.line)));
        s += buf;
    }
    return s;
}

} // namespace

Addr
enumAddr(std::uint32_t line)
{
    return kBase + static_cast<Addr>(line) * kLineStride;
}

void
encodeState(Multicore &m, std::uint32_t lines, std::string &out)
{
    const SystemConfig &cfg = m.config();
    if (cfg.numCores > 8 || cfg.pct > 0xFF || cfg.ratMax > 0xFF ||
        cfg.nRatLevels > 0x100)
        fatal("encodeState: %u cores, PCT %u, RATmax %u, %u RAT levels"
              " overflow the one-byte fields",
              cfg.numCores, cfg.pct, cfg.ratMax, cfg.nRatLevels);
    out.clear();
    const auto put = [&out](std::uint32_t v) {
        out.push_back(static_cast<char>(v));
    };
    const auto tag = [&](std::uint32_t l) -> LineAddr {
        return enumAddr(l) / cfg.lineSize;
    };

    // L1 contents: per core, per cache, per pool line (state + 1, or
    // 0 when absent; capped utilization).
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        const Tile &tl = m.tile(static_cast<CoreId>(c));
        for (const L1Cache *l1 : {&tl.l1d, &tl.l1i}) {
            std::uint32_t found = 0;
            for (std::uint32_t l = 0; l < lines; ++l) {
                const L1Cache::Entry e = l1->find(tag(l));
                if (!e) {
                    put(0);
                    put(0);
                    continue;
                }
                ++found;
                put(1 + static_cast<std::uint32_t>(e.meta().state));
                put(std::min(e.meta().privateUtil, cfg.pct));
            }
            if (found != l1->validCount())
                panic("encodeState: core %u caches a line outside the"
                      " %u-line pool", c, lines);
        }
    }

    // Directory entries: per home, per pool line; protocol metadata
    // plus the full per-core classifier records. An absent entry is
    // all zero bytes, a present one starts with 1.
    const std::size_t entry_bytes = 7 + 3 * cfg.numCores;
    const DirLayout layout(cfg);
    for (std::uint32_t h = 0; h < cfg.numCores; ++h) {
        const L2Cache &l2 = m.tile(static_cast<CoreId>(h)).l2;
        std::uint32_t found = 0;
        for (std::uint32_t l = 0; l < lines; ++l) {
            const L2Cache::Entry e = l2.find(tag(l));
            if (!e) {
                out.append(entry_bytes, '\0');
                continue;
            }
            ++found;
            const L2Meta &meta = e.meta();
            put(1);
            put(static_cast<std::uint32_t>(meta.dstate));
            put(coreByte(meta.owner));
            // dirty is deliberately excluded: it only gates the DRAM
            // write-back on an L2 eviction, and the bounded config
            // can never evict an L2 line (<= 2 distinct lines, 4
            // sets x 8 ways), so it is decision-irrelevant here the
            // same way data words are.
            const SharerList sharers = sharersOf(e);
            put(sharers.count());
            put(sharers.overflowed() ? 1 : 0);
            std::uint32_t tracked = 0;
            sharers.forEachTracked([&](CoreId t) { tracked |= 1u << t; });
            put(tracked);
            std::uint32_t holders = 0;
            for (const CoreId t : meta.holders)
                holders |= 1u << t;
            put(holders);
            for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
                const std::optional<CoreLocality> loc =
                    m.classifier().peek(layout.record(e),
                                        static_cast<CoreId>(c));
                if (!loc) {
                    put(0xFF); // untracked; modes are 0 and 1
                    put(0);
                    put(0);
                    continue;
                }
                // `active` is deliberately excluded: the Complete
                // classifier (which enumConfig pins, shortcut off)
                // writes it but never reads it — only Limited_k
                // consults it, for tracked-entry replacement — so
                // like the timing fields it cannot influence any
                // future decision here.
                put(static_cast<std::uint32_t>(loc->mode));
                put(std::min(loc->remoteUtil, cfg.ratMax));
                put(loc->ratLevel);
            }
        }
        if (found != l2.validCount())
            panic("encodeState: home %u holds a line outside the"
                  " %u-line pool", h, lines);
    }

    // R-NUCA page record of the (single) enumerated page: class and
    // owner drive every future home lookup and rehome decision.
    const PageTable::Record *rec =
        m.pageTable().lookup(kBase / cfg.pageSize);
    put(rec != nullptr ? 1 : 0);
    put(rec != nullptr ? static_cast<std::uint32_t>(rec->cls) : 0);
    put(rec != nullptr ? coreByte(rec->owner) : 0);
}

SystemConfig
enumConfig(std::uint32_t cores, const std::string &protocol,
           const std::string &network)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.meshWidth = cores;
    cfg.clusterSize = cores; // one cluster: unique instruction homes
    cfg.numMemControllers = 1;
    cfg.l1iSizeKB = 1;
    cfg.l1iAssoc = 1; // direct-mapped: deterministic replacement
    cfg.l1dSizeKB = 1;
    cfg.l1dAssoc = 1;
    cfg.l2SizeKB = 2;
    cfg.l2Assoc = 8; // 4 sets; never fills with <= 2 lines
    cfg.ackwisePointers = 1; // overflow reachable with 2 sharers
    cfg.classifierKind = ClassifierKind::Complete;
    cfg.pct = 2;
    cfg.ratMax = 2;
    // One RAT level: with pct == ratMax every level's threshold is
    // identical anyway, and collapsing the level counter removes a
    // decision-irrelevant state dimension from the search.
    cfg.nRatLevels = 1;
    applyProtocolName(cfg, protocol);
    applyNetworkName(cfg, network);
    return cfg;
}

EnumResult
enumerate(const EnumOptions &opt)
{
    EnumResult res;
    const SystemConfig cfg =
        enumConfig(opt.cores, opt.protocol, opt.network);

    // Event alphabet: every (core, line, kind) access.
    std::vector<Event> events;
    for (std::uint32_t c = 0; c < opt.cores; ++c)
        for (std::uint32_t l = 0; l < opt.lines; ++l)
            for (std::uint8_t k = 0; k < 3; ++k)
                events.push_back({static_cast<std::uint8_t>(c),
                                  static_cast<std::uint8_t>(l), k});

    // Three systems, built once: `reset` never moves; `node` is the
    // frontier node being expanded (restored to reset, then its path
    // replayed once); `child` explores one successor at a time
    // (restored from `node`, then one event).
    const Multicore reset(cfg);
    Multicore node(cfg);
    Multicore child(cfg);

    std::string code; // reused encoding buffer
    std::unordered_set<std::string> seen;
    std::deque<std::vector<Event>> frontier;
    bool capped = false;

    encodeState(node, opt.lines, code);
    seen.insert(code);
    frontier.push_back({});

    while (!frontier.empty() && !capped) {
        std::vector<Event> path = std::move(frontier.front());
        frontier.pop_front();
        node.restoreFrom(reset);
        for (const Event &e : path)
            applyEvent(node, e);
        for (const Event &e : events) {
            child.restoreFrom(node);
            applyEvent(child, e);
            ++res.transitions;
            auto viol = checkAll(child);
            if (!viol.empty()) {
                path.push_back(e);
                res.states = seen.size();
                res.violations = std::move(viol);
                res.counterexample = renderPath(path);
                return res;
            }
            encodeState(child, opt.lines, code);
            if (seen.find(code) != seen.end())
                continue;
            seen.insert(code);
            if (seen.size() >= opt.maxStates) {
                capped = true;
                break;
            }
            std::vector<Event> next = path;
            next.push_back(e);
            frontier.push_back(std::move(next));
        }
    }

    res.states = seen.size();
    res.exhaustive = !capped;
    return res;
}

} // namespace verify
} // namespace lacc
