#include "verify/invariants.hh"

#include <algorithm>
#include <cstring>

#include "protocol/dir_entry.hh"
#include "sim/addr_map.hh"
#include "sim/log.hh"
#include "system/multicore.hh"
#include "system/tile.hh"

namespace lacc {
namespace verify {

namespace {

/** One core's L1 copies of a line (a core can hold both an I and a
 * D copy of the same line). */
struct Copies
{
    std::uint32_t count = 0;
    std::uint32_t exclusiveCount = 0; //!< copies in E or M
    L1Cache::Entry d, i;
};

Copies
copiesOf(Tile &tl, LineAddr line)
{
    Copies c;
    c.d = tl.l1d.find(line);
    c.i = tl.l1i.find(line);
    for (const auto &e : {c.d, c.i}) {
        if (!e)
            continue;
        ++c.count;
        if (e.meta().state == L1State::Exclusive ||
            e.meta().state == L1State::Modified)
            ++c.exclusiveCount;
    }
    return c;
}

/**
 * Check one valid directory entry at home tile @p h. Kept out of line:
 * inlined into checkInvariants' scan of every L2 slot, most of them
 * invalid, it made the whole check ~1.8x slower on enumerator states.
 */
[[gnu::noinline]] void
checkEntry(Multicore &m, CoreId h, L2Cache::Entry e,
           std::vector<std::string> &out)
{
    const L2Meta &meta = e.meta();
    const LineAddr line = e.tag();
    const unsigned long long ll = line;

    // Holder set vs L1 residency, and per-state copy rules.
    std::uint32_t exclusive_copies = 0;
    for (const CoreId s : meta.holders) {
        const Copies c = copiesOf(m.tile(s), line);
        if (c.count == 0)
            out.push_back(vfmt("line %llx home %u: holder %u has no"
                               " L1 copy", ll, h, s));
        exclusive_copies += c.exclusiveCount;
        switch (meta.dstate) {
          case DirState::Shared:
            if (c.exclusiveCount != 0)
                out.push_back(vfmt("line %llx home %u: dir Shared but"
                                   " holder %u has an E/M copy", ll,
                                   h, s));
            break;
          case DirState::Exclusive:
            if (s == meta.owner() &&
                (c.count != 1 || c.exclusiveCount != 1))
                out.push_back(vfmt("line %llx home %u: owner %u must"
                                   " hold exactly one E/M copy (has"
                                   " %u copies, %u E/M)", ll, h, s,
                                   c.count, c.exclusiveCount));
            break;
          case DirState::Uncached:
            break; // the holder set itself is flagged below
        }

        // No stale reads: S and E copies must be word-identical to
        // the home L2 copy (an M copy is by definition newer).
        for (const auto &le : {c.d, c.i}) {
            if (!le || le.meta().state == L1State::Modified)
                continue;
            if (std::memcmp(le.words(), e.words(),
                            sizeof(std::uint64_t) *
                                e.wordsPerLine()) != 0)
                out.push_back(vfmt("line %llx home %u: core %u's %s"
                                   " copy differs from the L2 copy",
                                   ll, h, s,
                                   l1StateName(le.meta().state)));
        }
    }

    // Single-writer: at most one E/M copy across the entry's holders,
    // and only under an Exclusive directory state.
    if (exclusive_copies > 1)
        out.push_back(vfmt("line %llx home %u: %u E/M copies coexist",
                           ll, h, exclusive_copies));

    // Directory-state consistency.
    switch (meta.dstate) {
      case DirState::Uncached:
        if (meta.holders.size() != 0)
            out.push_back(vfmt("line %llx home %u: Uncached with %u"
                               " holders", ll, h, meta.holders.size()));
        break;
      case DirState::Shared:
        if (meta.holders.size() == 0)
            out.push_back(vfmt("line %llx home %u: Shared with no"
                               " holders", ll, h));
        break;
      case DirState::Exclusive:
        if (meta.holders.size() != 1)
            out.push_back(vfmt("line %llx home %u: Exclusive with %u"
                               " holders", ll, h,
                               meta.holders.size()));
        break;
    }

    // ACKwise overflow bit: set only under ACKwise and only while
    // someone holds the line, and always once more than p do.
    const SystemConfig &cfg = m.config();
    if (meta.overflowed && cfg.directoryKind != DirectoryKind::Ackwise)
        out.push_back(vfmt("line %llx home %u: overflowed under a full"
                           " map", ll, h));
    if (meta.overflowed && meta.holders.empty())
        out.push_back(vfmt("line %llx home %u: overflowed with no"
                           " holders", ll, h));
    if (meta.holders.size() > overflowLimit(cfg) && !meta.overflowed)
        out.push_back(vfmt("line %llx home %u: %u holders exceed %u"
                           " pointers without overflow", ll, h,
                           meta.holders.size(), overflowLimit(cfg)));
}

} // namespace

std::vector<std::string>
checkInvariants(Multicore &m)
{
    std::vector<std::string> out;
    const std::uint32_t n = m.config().numCores;

    // Directory side: every valid entry of every home slice.
    for (std::uint32_t h = 0; h < n; ++h) {
        m.tile(static_cast<CoreId>(h)).l2.forEachValid(
            [&](L2Cache::Entry e) {
                checkEntry(m, static_cast<CoreId>(h), e, out);
            });
    }

    // L1 side (inclusion + the converse): every resident L1 line
    // must be tracked as a holder at its home slice.
    for (std::uint32_t c = 0; c < n; ++c) {
        Tile &tl = m.tile(static_cast<CoreId>(c));
        for (L1Cache *l1 : {&tl.l1d, &tl.l1i}) {
            const char *which = l1 == &tl.l1d ? "L1-D" : "L1-I";
            l1->forEachValid([&](L1Cache::Entry e) {
                const LineAddr line = e.tag();
                const CoreId home = m.directory().homeOf(
                    line, static_cast<CoreId>(c));
                auto he = m.tile(home).l2.find(line);
                if (!he) {
                    out.push_back(vfmt("line %llx: core %u %s copy"
                                       " not present in home %u's L2"
                                       " (inclusion)",
                                       static_cast<unsigned long long>(
                                           line),
                                       c, which, home));
                    return;
                }
                if (!he.meta().holders.contains(
                        static_cast<CoreId>(c)))
                    out.push_back(vfmt("line %llx: core %u %s copy"
                                       " untracked at home %u",
                                       static_cast<unsigned long long>(
                                           line),
                                       c, which, home));
            });
        }
    }
    return out;
}

std::vector<std::string>
checkFinalMemory(Multicore &m)
{
    const SystemConfig &cfg = m.config();
    const AddressMap addr(cfg);

    // Each word is checked where the reference map keeps it; only
    // mismatches are collected (nothing allocates on a clean state)
    // and then reported in ascending word order, a word's homes in
    // ascending order as its check finds them.
    std::vector<std::pair<Addr, std::string>> bad;
    m.functionalMemory().forEachWord([&](Addr wa, std::uint64_t expect) {
        const LineAddr line = addr.lineOf(wa);
        const std::uint32_t w = addr.wordOf(wa);

        // Visible value chain: the unique M copy shadows the L2 copy,
        // which shadows DRAM. Instruction-class lines can be
        // replicated across cluster homes; every replica must agree.
        bool have_l2 = false;
        for (std::uint32_t h = 0; h < cfg.numCores; ++h) {
            auto e = m.tile(static_cast<CoreId>(h)).l2.find(line);
            if (!e)
                continue;
            have_l2 = true;
            std::uint64_t visible = e.words()[w];
            const char *where = "L2 copy";
            if (e.meta().dstate == DirState::Exclusive) {
                Tile &ot = m.tile(e.meta().owner());
                for (auto oc : {ot.l1d.find(line), ot.l1i.find(line)}) {
                    if (oc && oc.meta().state == L1State::Modified) {
                        visible = oc.words()[w];
                        where = "owner's M copy";
                    }
                }
            }
            if (visible != expect)
                bad.emplace_back(
                    wa, vfmt("word %llx: %s at home %u has %llu,"
                             " reference memory has %llu",
                             static_cast<unsigned long long>(wa), where,
                             h, static_cast<unsigned long long>(visible),
                             static_cast<unsigned long long>(expect)));
        }
        if (!have_l2) {
            const std::uint64_t stored = m.dram().readWord(line, w);
            if (stored != expect)
                bad.emplace_back(
                    wa, vfmt("word %llx: DRAM has %llu, reference"
                             " memory has %llu",
                             static_cast<unsigned long long>(wa),
                             static_cast<unsigned long long>(stored),
                             static_cast<unsigned long long>(expect)));
        }
    });

    std::stable_sort(bad.begin(), bad.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::vector<std::string> out;
    out.reserve(bad.size());
    for (auto &b : bad)
        out.push_back(std::move(b.second));
    return out;
}

std::vector<std::string>
checkAll(Multicore &m)
{
    std::vector<std::string> out = checkInvariants(m);
    const auto mem = checkFinalMemory(m);
    out.insert(out.end(), mem.begin(), mem.end());
    if (m.functionalErrors() > 0)
        out.push_back(vfmt("%llu functional read mismatches (see"
                           " warnings above)",
                           static_cast<unsigned long long>(
                               m.functionalErrors())));
    return out;
}

} // namespace verify
} // namespace lacc
