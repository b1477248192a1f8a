/**
 * @file
 * Restore equivalence (Multicore::restoreFrom): a system restored from
 * a snapshot and then driven on must be indistinguishable from a
 * fresh replay of the same accesses. Covered: every protocol x network
 * x classifier kind on the enumerator's config; restores into *dirty*
 * targets that held a deeper, different state; a small-L2 config where
 * L2 evictions and slot refills happen (the directory entry and its
 * auxiliary block, the classifier record, must move together); and an
 * armed
 * lossy-link fault plan. The comparison covers per-tile clocks and
 * CoreStats, every cache slot, classifier records, network and DRAM
 * state, the page table, the reference memory, the enumerator's
 * canonical encoding and checkAll. A piece of mutable state left out
 * of restoreFrom shows up here as a diverging line.
 */

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/network.hh"
#include "protocol/protocol.hh"
#include "sim/abort.hh"
#include "sim/rng.hh"
#include "system/multicore.hh"
#include "system/report.hh"
#include "verify/enumerate.hh"
#include "verify/invariants.hh"

namespace lacc {
namespace {

struct Access
{
    CoreId core;
    Addr addr;
    bool write;
    bool ifetch;
};

using Path = std::vector<Access>;

Path
randomPath(Rng &rng, std::uint32_t cores, const std::vector<Addr> &pool,
           std::size_t n)
{
    Path p;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t kind = rng.below(3);
        p.push_back({static_cast<CoreId>(rng.below(cores)),
                     pool[rng.below(pool.size())], kind == 1,
                     kind == 2});
    }
    return p;
}

/**
 * Apply accesses [from, to) of @p p. @return the abort message of an
 * unrecoverable fault (empty when none): fault-armed configs abort
 * deterministically, so both sides of a comparison must agree on it.
 */
std::string
apply(Multicore &m, const Path &p, std::size_t from, std::size_t to)
{
    try {
        for (std::size_t i = from; i < to; ++i)
            m.testAccess(p[i].core, p[i].addr, p[i].write, p[i].ifetch);
    } catch (const RunAbort &e) {
        return e.what();
    }
    return "";
}

template <typename Cache, typename MetaFn>
void
describeCache(std::ostream &os, const char *name, Cache &c, MetaFn meta)
{
    std::size_t i = 0;
    c.forEach([&](typename Cache::Entry e) {
        os << name << '[' << i++ << "] v" << e.valid() << " tag "
           << e.tag() << " last " << e.lastAccess();
        if (e.valid()) {
            meta(os, e);
            os << " words";
            for (std::uint32_t w = 0; w < e.wordsPerLine(); ++w)
                os << ' ' << e.words()[w];
        }
        os << '\n';
    });
}

/** Everything restoreFrom must carry, one fact per line. */
std::string
describe(Multicore &m, const std::vector<Addr> &pool)
{
    std::ostringstream os;
    const SystemConfig &cfg = m.config();

    SystemStats ss = m.stats();
    for (std::uint32_t c = 0; c < cfg.numCores; ++c)
        ss.perCore[c] = m.tile(static_cast<CoreId>(c)).stats;
    ss.network = m.network().stats();
    os << "stats " << statsSignature(ss) << '\n';
    const EnergyCounts e = m.energy().counts();
    os << "energy " << e.l1iAccesses << ' ' << e.l1iFills << ' '
       << e.l1iTagOnly << ' ' << e.l1dAccesses << ' ' << e.l1dFills
       << ' ' << e.l1dTagOnly << ' ' << e.l2Words << ' ' << e.l2Lines
       << ' ' << e.l2TagOnly << ' ' << e.dirAccesses << ' '
       << e.routerFlits << ' ' << e.linkFlits << '\n';
    if (const FaultInjector *fi = m.faultInjector()) {
        const FaultStats &f = fi->stats();
        os << "faults " << f.linkDrops << ' ' << f.linkCorruptions << ' '
           << f.retransmits << ' ' << f.nacks << ' ' << f.softErrors
           << ' ' << f.eccCorrected << ' ' << f.eccDetected << ' '
           << f.scrubs << ' ' << f.silentCorruptions << '\n';
    }

    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        Tile &tl = m.tile(static_cast<CoreId>(c));
        os << "tile " << c << " now " << tl.now << " status "
           << static_cast<int>(tl.status) << " pending "
           << tl.pending.size() << " walker " << tl.ifetchLine << ' '
           << tl.instrInLine << " tracked "
           << tl.missTracker.trackedLines() << '\n';
        const auto l1meta = [](std::ostream &o, L1Cache::Entry e) {
            o << " st " << static_cast<int>(e.meta().state) << " util "
              << e.meta().privateUtil;
        };
        describeCache(os, "l1d", tl.l1d, l1meta);
        describeCache(os, "l1i", tl.l1i, l1meta);
        describeCache(os, "l2", tl.l2, [&](std::ostream &o,
                                           L2Cache::Entry e) {
            const L2Meta &mt = e.meta();
            o << " dir " << static_cast<int>(mt.dstate) << " overflowed "
              << mt.overflowed << " holders";
            for (const CoreId h : mt.holders)
                o << ' ' << h; // grant order: fan-out timing
            o << " busy " << mt.busyUntil << " dirty " << mt.dirty
              << " cls";
            for (std::uint32_t k = 0; k < cfg.numCores; ++k) {
                const std::optional<CoreLocality> loc = m.classifier().peek(
                    e.aux(), static_cast<CoreId>(k));
                if (!loc) {
                    o << " -";
                    continue;
                }
                o << ' ' << static_cast<int>(loc->mode) << ':'
                  << loc->remoteUtil << ':' << loc->ratLevel << ':'
                  << loc->active << ':' << loc->lastAccess;
            }
        });
    }

    NetworkModel &net = m.network();
    os << "links";
    for (std::uint32_t l = 0; l < net.numLinks(); ++l)
        os << ' ' << net.linkFlits(l);
    os << '\n';

    DramModel &dram = m.dram();
    os << "dram " << dram.accesses() << ' ' << dram.queueingCycles()
       << ' ' << dram.storedLines() << '\n';
    std::vector<std::uint64_t> line(cfg.wordsPerLine());
    os << "pages " << m.pageTable().size() << '\n';
    for (const Addr a : pool) {
        dram.readLine(a / cfg.lineSize, line.data());
        os << "dram-line " << a << ':';
        for (const std::uint64_t w : line)
            os << ' ' << w;
        if (const PageTable::Record *rec =
                m.pageTable().lookup(a / cfg.pageSize))
            os << " page " << static_cast<int>(rec->cls) << ' '
               << rec->owner;
        os << '\n';
    }

    std::vector<std::pair<Addr, std::uint64_t>> words;
    m.functionalMemory().forEachWord(
        [&](Addr wa, std::uint64_t v) { words.emplace_back(wa, v); });
    std::sort(words.begin(), words.end());
    os << "mem errors " << m.functionalErrors();
    for (const auto &[wa, v] : words)
        os << ' ' << wa << '=' << v;
    os << '\n';
    return os.str();
}

/** One configuration under test and its address pool. */
struct Case
{
    std::string name;
    SystemConfig cfg;
    std::vector<Addr> pool;
    bool enumPool; //!< pool is the enumerator's: compare encodeState
};

std::vector<Addr>
enumPool()
{
    return {verify::enumAddr(0), verify::enumAddr(1)};
}

/**
 * Many lines over three pages, run on a 1 KB 2-way L2: L2 evictions,
 * inclusive back-invalidations, DRAM write-backs and refills of used
 * slots are all frequent.
 */
std::vector<Addr>
evictionPool()
{
    std::vector<Addr> pool;
    for (Addr page = 0; page < 3; ++page)
        for (Addr l = 0; l < 16; ++l)
            pool.push_back((Addr{1} << 32) + page * 4096 + l * 64);
    return pool;
}

std::vector<Case>
cases()
{
    std::vector<Case> out;
    const ClassifierKind kinds[] = {
        ClassifierKind::Complete, ClassifierKind::Limited,
        ClassifierKind::Timestamp, ClassifierKind::AlwaysPrivate};
    for (const auto &proto : protocolNames()) {
        for (const auto &net : networkNames()) {
            for (const ClassifierKind k : kinds) {
                SystemConfig cfg = verify::enumConfig(3, proto, net);
                cfg.classifierKind = k;
                cfg.classifierK = 2; // 3 cores: Limited replaces slots
                out.push_back({proto + "/" + net + "/" +
                                   classifierKindName(k),
                               cfg, enumPool(), true});
            }
        }
        for (const ClassifierKind k :
             {ClassifierKind::Complete, ClassifierKind::Limited}) {
            SystemConfig cfg = verify::enumConfig(3, proto, "mesh");
            cfg.classifierKind = k;
            cfg.classifierK = 2;
            cfg.l2SizeKB = 1;
            cfg.l2Assoc = 2;
            out.push_back({proto + "/small-l2/" + classifierKindName(k),
                           cfg, evictionPool(), false});
        }
    }
    SystemConfig faulty = verify::enumConfig(3, "lacc", "mesh");
    faulty.l2SizeKB = 1;
    faulty.l2Assoc = 2;
    faulty.faultKind = FaultKind::Links;
    faulty.faultRate = 0.05;
    out.push_back({"lacc/small-l2/links-faults", faulty, evictionPool(),
                   false});
    return out;
}

TEST(Restore, RestoreThenAccessEqualsFreshReplay)
{
    std::uint32_t evictions = 0;
    for (const Case &tc : cases()) {
        SCOPED_TRACE(tc.name);
        for (std::uint64_t seed = 0; seed < 6; ++seed) {
            SCOPED_TRACE("seed " + std::to_string(seed));
            Rng rng(seed * 7919 + 17);
            const std::uint32_t cores = tc.cfg.numCores;
            const std::size_t n = 24 + rng.below(40);
            const Path p = randomPath(rng, cores, tc.pool, n);
            const std::size_t k = seed == 0 ? 0 : rng.below(n + 1);
            // A deeper, different history for the restore target.
            const Path q =
                randomPath(rng, cores, tc.pool, k + 8 + rng.below(32));

            Multicore fresh(tc.cfg);
            const std::string fresh_abort = apply(fresh, p, 0, n);

            Multicore src(tc.cfg);
            const std::string src_abort = apply(src, p, 0, k);
            Multicore dst(tc.cfg);
            apply(dst, q, 0, q.size());
            dst.restoreFrom(src);
            ASSERT_EQ(describe(dst, tc.pool), describe(src, tc.pool))
                << "the restore itself is inexact";
            const std::string dst_abort =
                src_abort.empty() ? apply(dst, p, k, n) : src_abort;

            EXPECT_EQ(dst_abort, fresh_abort);
            EXPECT_EQ(describe(dst, tc.pool), describe(fresh, tc.pool));
            EXPECT_EQ(verify::checkAll(dst), verify::checkAll(fresh));
            if (tc.enumPool) {
                std::string a, b;
                verify::encodeState(dst, 2, a);
                verify::encodeState(fresh, 2, b);
                EXPECT_EQ(a, b);
            }
            evictions += static_cast<std::uint32_t>(
                fresh.stats().protocol.l2Evictions);
        }
    }
    // The small-L2 cases must really evict (and so refill used slots).
    EXPECT_GT(evictions, 50u);
}

TEST(Restore, RejectsAConfigMismatch)
{
    SystemConfig a = verify::enumConfig(2, "lacc", "mesh");
    SystemConfig b = a;
    b.l2Latency = a.l2Latency + 1;
    Multicore ma(a);
    const Multicore mb(b);
    EXPECT_EXIT(ma.restoreFrom(mb), testing::ExitedWithCode(1),
                "configurations differ");
}

} // namespace
} // namespace lacc
