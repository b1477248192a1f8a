#include "verify/enumerate.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

#include "net/factory.hh"
#include "protocol/protocol.hh"
#include "sim/log.hh"
#include "sim/types.hh"
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
renderPath(const std::vector<Event> &events,
           const std::vector<std::uint8_t> &path)
{
    std::string s;
    for (const std::uint8_t k : path) {
        const Event &e = events[k];
        char buf[64];
        std::snprintf(buf, sizeof buf, "core %u %c %llx\n", e.core,
                      "rwf"[e.kind],
                      static_cast<unsigned long long>(enumAddr(e.line)));
        s += buf;
    }
    return s;
}

/**
 * The visited set: every canonical code (all of one width) stored in
 * full in a chunked arena indexed by state id (ids are dense, in
 * insertion order), plus an open-addressing table of ids keyed by a
 * hash of the code. A table slot holds the code hash's high 32 bits
 * beside id + 1 (0 = empty); a probe compares that tag first and then
 * the whole stored code, so deduplication never merges two distinct
 * states. Growing the table rehashes the stored codes; the arena
 * never moves.
 */
class StateSet
{
  public:
    explicit StateSet(std::size_t width)
        : width_(width), slots_(kMinSlots, 0), mask_(kMinSlots - 1)
    {}

    std::uint32_t size() const { return count_; }

    /** Add @p code unless present. @return true if it was new; its
     * id is then size() - 1. */
    bool
    insert(const std::uint8_t *code)
    {
        const std::uint64_t h = hash(code);
        std::size_t i = h & mask_;
        for (; slots_[i] != 0; i = (i + 1) & mask_) {
            if ((slots_[i] >> 32) == (h >> 32) &&
                std::memcmp(at(idIn(slots_[i])), code, width_) == 0)
                return false;
        }
        const std::uint32_t id = count_;
        if (id % kChunkStates == 0)
            chunks_.emplace_back(new std::uint8_t[kChunkStates * width_]);
        std::memcpy(chunks_.back().get() + (id % kChunkStates) * width_,
                    code, width_);
        ++count_;
        if (static_cast<std::size_t>(count_) * 2 > slots_.size())
            grow();
        else
            slots_[i] = slotOf(h, id);
        return true;
    }

  private:
    static constexpr std::size_t kMinSlots = 1024;
    static constexpr std::size_t kChunkStates = std::size_t{1} << 16;

    static std::uint64_t
    slotOf(std::uint64_t h, std::uint32_t id)
    {
        return (h & 0xFFFFFFFF00000000ULL) | (std::uint64_t{id} + 1);
    }

    static std::uint32_t
    idIn(std::uint64_t slot)
    {
        return static_cast<std::uint32_t>(slot) - 1;
    }

    const std::uint8_t *
    at(std::uint32_t id) const
    {
        return chunks_[id / kChunkStates].get() +
               (id % kChunkStates) * width_;
    }

    std::uint64_t
    hash(const std::uint8_t *code) const
    {
        std::uint64_t h = width_;
        for (std::size_t i = 0; i < width_; i += 8) {
            std::uint64_t w = 0;
            std::memcpy(&w, code + i,
                        std::min<std::size_t>(8, width_ - i));
            h = (h ^ w) * 0x9E3779B97F4A7C15ULL;
            h ^= h >> 32;
        }
        return mixAddrBits(h);
    }

    /** Double the table (load factor <= 1/2) and re-place every id,
     * rehashing the stored codes. The old table is freed first: it is
     * not needed, and holding it would raise the peak footprint. */
    void
    grow()
    {
        const std::size_t n = slots_.size() * 2;
        std::vector<std::uint64_t>().swap(slots_);
        slots_.assign(n, 0);
        mask_ = n - 1;
        for (std::uint32_t id = 0; id < count_; ++id) {
            const std::uint64_t h = hash(at(id));
            std::size_t i = h & mask_;
            while (slots_[i] != 0)
                i = (i + 1) & mask_;
            slots_[i] = slotOf(h, id);
        }
    }

    std::size_t width_;
    std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
    std::uint32_t count_ = 0;
    std::vector<std::uint64_t> slots_; //!< power-of-two sized
    std::size_t mask_;
};

/** How BFS first reached a state: from state `parent` by event
 * `event` (an index into the event alphabet). Indexed by state id. */
struct Step
{
    std::uint32_t parent;
    std::uint8_t event;
};

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
    // Config fields read into locals once: every byte written through
    // a cursor may alias them, which would force a reload per use.
    const std::uint32_t cores = cfg.numCores;
    const std::uint32_t pct = cfg.pct;
    const std::uint32_t rat_max = cfg.ratMax;
    const unsigned line_shift = __builtin_ctz(cfg.lineSize);
    const std::size_t l1_bytes = 2 * 2 * lines; // per core: D, I
    const std::size_t entry_bytes = 4 + 3 * cores;

    // Absent lines and entries are all zero bytes, so the buffer is
    // zeroed once and only resident lines are visited and written.
    // Layout: L1 fields per core, directory entries per home, and the
    // 3-byte page record.
    out.assign(cores * (l1_bytes + lines * entry_bytes) + 3, '\0');
    char *const base = out.data();
    // Pool index of a resident line; anything else breaks the layout.
    const auto poolIndex = [&](LineAddr tag, const char *who,
                               std::uint32_t id) -> std::uint32_t {
        const Addr a = tag << line_shift;
        if (a < kBase || (a - kBase) % kLineStride != 0 ||
            (a - kBase) / kLineStride >= lines)
            panic("encodeState: %s %u holds a line outside the %u-line"
                  " pool", who, id, lines);
        return static_cast<std::uint32_t>((a - kBase) / kLineStride);
    };

    // L1 contents: per core, per cache, per pool line (state + 1, or
    // 0 when absent; capped utilization).
    for (std::uint32_t c = 0; c < cores; ++c) {
        const Tile &tl = m.tile(static_cast<CoreId>(c));
        char *const core_fields = base + c * l1_bytes;
        for (const L1Cache *l1 : {&tl.l1d, &tl.l1i}) {
            char *const cache_fields =
                core_fields + (l1 == &tl.l1d ? 0 : 2 * lines);
            l1->forEachValid([&](L1Cache::Entry e) {
                char *p = cache_fields + 2 * poolIndex(e.tag(), "core", c);
                *p++ = static_cast<char>(
                    1 + static_cast<std::uint32_t>(e.meta().state));
                *p = static_cast<char>(std::min(e.meta().privateUtil, pct));
            });
        }
    }

    // Directory entries: per home, per pool line; protocol metadata
    // plus the full per-core classifier records. An absent entry is
    // all zero bytes, a present one starts with 1.
    char *const dir_fields = base + cores * l1_bytes;
    const LocalityClassifier &classifier = m.classifier();
    for (std::uint32_t h = 0; h < cores; ++h) {
        const L2Cache &l2 = m.tile(static_cast<CoreId>(h)).l2;
        l2.forEachValid([&](L2Cache::Entry e) {
            char *p = dir_fields +
                      (h * lines + poolIndex(e.tag(), "home", h)) *
                          entry_bytes; // the write cursor
            const auto put = [&p](std::uint32_t v) {
                *p++ = static_cast<char>(v);
            };
            const L2Meta &meta = e.meta();
            put(1);
            put(static_cast<std::uint32_t>(meta.dstate));
            // dirty is deliberately excluded, for the same reason as
            // the data words: it only decides where a line's value
            // lives. An L2 eviction or an R-NUCA re-home flush
            // (flushPage -> l2Evict) writes a dirty line back to DRAM
            // and drops a clean one, whose DRAM image is already
            // current, so the next fill reads the same value either
            // way; the write-back's timing and energy are left out
            // like all timing. No protocol decision reads the bit
            // while faults are off (only applySoftFaults' double-bit
            // policy does), and the functional reference check
            // catches a clean-marked line whose DRAM image is stale.
            put(meta.overflowed ? 1 : 0);
            std::uint32_t holders = 0;
            for (const CoreId t : meta.holders)
                holders |= 1u << t;
            put(holders);
            for (std::uint32_t c = 0; c < cores; ++c) {
                const std::optional<CoreLocality> loc =
                    classifier.peek(e.aux(), static_cast<CoreId>(c));
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
                put(std::min(loc->remoteUtil, rat_max));
                put(loc->ratLevel);
            }
        });
    }

    // R-NUCA page record of the (single) enumerated page: class and
    // owner drive every future home lookup and rehome decision.
    const PageTable::Record *rec =
        m.pageTable().lookup(kBase / cfg.pageSize);
    if (rec != nullptr) {
        char *p = base + out.size() - 3;
        p[0] = 1;
        p[1] = static_cast<char>(rec->cls);
        p[2] = static_cast<char>(coreByte(rec->owner));
    }
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
    if (opt.cores < 2 || opt.cores > 4)
        fatal("enumerate: cores (%u) must be in [2, 4]", opt.cores);
    if (opt.lines < 1 || opt.lines > 2)
        fatal("enumerate: lines (%u) must be in [1, 2]", opt.lines);
    if (opt.maxStates < 1 || opt.maxStates > kMaxEnumStates)
        fatal("enumerate: maxStates (%llu) must be in [1, %llu]",
              static_cast<unsigned long long>(opt.maxStates),
              static_cast<unsigned long long>(kMaxEnumStates));

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
    const auto codeBytes = [&code] {
        return reinterpret_cast<const std::uint8_t *>(code.data());
    };
    encodeState(node, opt.lines, code);
    StateSet seen(code.size());
    // steps[id] records how BFS first reached state `id`. States are
    // discovered in id order, so the frontier is the id range
    // [n, seen.size()) and expanding node n is a cursor step.
    std::vector<Step> steps;
    seen.insert(codeBytes());
    steps.push_back({0, 0}); // reset: its own root, never walked
    std::vector<std::uint8_t> path; // reused: node n's events from reset
    bool capped = seen.size() >= opt.maxStates;

    for (std::uint32_t n = 0; n < seen.size() && !capped; ++n) {
        path.clear();
        for (std::uint32_t id = n; id != 0; id = steps[id].parent)
            path.push_back(steps[id].event);
        std::reverse(path.begin(), path.end());
        node.restoreFrom(reset);
        for (const std::uint8_t k : path)
            applyEvent(node, events[k]);
        for (std::uint8_t k = 0; k < events.size(); ++k) {
            child.restoreFrom(node);
            applyEvent(child, events[k]);
            ++res.transitions;
            auto viol = checkAll(child);
            if (!viol.empty()) {
                path.push_back(k);
                res.states = seen.size();
                res.violations = std::move(viol);
                res.counterexample = renderPath(events, path);
                return res;
            }
            encodeState(child, opt.lines, code);
            if (!seen.insert(codeBytes()))
                continue;
            steps.push_back({n, k});
            if (seen.size() >= opt.maxStates) {
                capped = true;
                break;
            }
        }
    }

    res.states = seen.size();
    res.exhaustive = !capped;
    return res;
}

} // namespace verify
} // namespace lacc
