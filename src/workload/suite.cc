#include "workload/suite.hh"

#include <algorithm>
#include <unordered_map>

#include "sim/log.hh"

namespace lacc {

namespace {

/** FNV-1a hash so each benchmark gets a distinct, stable seed. */
std::uint64_t
nameSeed(const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char ch : name) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Largest divisor of @p cores that is <= @p want (>= 1). */
std::uint32_t
fitDegree(std::uint32_t want, std::uint32_t cores)
{
    std::uint32_t d = std::min(want, cores);
    while (d > 1 && cores % d != 0)
        --d;
    return std::max<std::uint32_t>(d, 1);
}

} // namespace

const std::vector<std::string> &
benchmarkNames()
{
    static const std::vector<std::string> names = {
        "radix",      "lu-nc",       "barnes",     "ocean-nc",
        "water-sp",   "raytrace",    "blackscholes", "streamcluster",
        "dedup",      "bodytrack",   "fluidanimate", "canneal",
        "dijkstra-ss", "dijkstra-ap", "patricia",   "susan",
        "concomp",    "community",   "tsp",        "dfs",
        "matmul",
    };
    return names;
}

bool
isBenchmark(const std::string &name)
{
    const auto &names = benchmarkNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

/*
 * Sizing discipline (docs/ARCHITECTURE.md "Workloads"; the `table2`
 * experiment prints each mix): run lengths are ~12k-24k data
 * accesses per core, so streamed footprints are sized for >= 2-4
 * full passes (footprint_lines <= weight * ops / (util * passes));
 * otherwise demoted lines would never be revisited and the
 * capacity/sharing -> word conversions the paper reports could not
 * appear. Weights are access shares (ArchetypeWeights).
 */
SyntheticSpec
benchmarkSpec(const std::string &name, const SystemConfig &cfg,
              double op_scale)
{
    SyntheticSpec s;
    s.name = name;
    s.numCores = cfg.numCores;
    s.seed = cfg.seed ^ nameSeed(name);

    // Defaults shared by most benchmarks; entries below override.
    s.opsPerPhase = 4000;
    s.numPhases = 4;
    s.computePerMemop = 2;
    s.iFootprintLines = 24;
    s.sharingDegree = fitDegree(4, cfg.numCores);

    if (name == "radix") {
        // Partitioned key scans plus an all-to-all exchange. The first
        // toucher of an exchange block scans it sparsely, so Limited_1
        // mis-seeds later (high-reuse) sharers into remote mode (§5.3).
        s.mix = {.privateHot = 0.30, .privateStream = 0.35,
                 .sharedRO = 0.15, .sharedPC = 0.20, .sharedStream = 0,
                 .lockRMW = 0};
        s.privateStreamBytes = 48ull << 10;
        s.privateStreamUtil = 2;
        s.sharedROBytes = 64ull << 10;
        s.sharedROUtil = 6;
        s.sharedROLeaderUtil = 1;
        s.sharedPCBytes = 128ull << 10;
        s.sharingDegree = fitDegree(8, cfg.numCores);
        s.pcWriteBurst = 3;
        s.pcReadBurst = 2;
        s.computePerMemop = 1;
    } else if (name == "lu-nc") {
        // Non-contiguous blocked factorization: large per-core panels
        // with modest reuse and read-shared pivots. High miss rate;
        // word misses overwhelm the benefit past PCT ~3 (§5.1.2).
        s.mix = {.privateHot = 0.20, .privateStream = 0.50,
                 .sharedRO = 0.30, .sharedPC = 0, .sharedStream = 0,
                 .lockRMW = 0};
        s.privateStreamBytes = 64ull << 10;
        s.privateStreamUtil = 3;
        s.sharedROBytes = 256ull << 10;
        s.sharedROUtil = 3;
        s.privateHotUtil = 12;
        s.computePerMemop = 1;
    } else if (name == "barnes") {
        // Octree walk (read-shared) plus private bodies; moderate
        // locality everywhere, so high PCT hurts (§5.1.2).
        s.mix = {.privateHot = 0.40, .privateStream = 0.10,
                 .sharedRO = 0.35, .sharedPC = 0, .sharedStream = 0,
                 .lockRMW = 0.15};
        s.sharedROBytes = 128ull << 10;
        s.sharedROUtil = 4;
        s.privateStreamBytes = 48ull << 10;
        s.privateStreamUtil = 4;
        s.privateHotUtil = 10;
        s.numLocks = 64;
        s.csLines = 1;
    } else if (name == "ocean-nc") {
        // Grid stencils over big private planes with nearest-neighbor
        // exchange; high miss rate.
        s.mix = {.privateHot = 0.20, .privateStream = 0.55,
                 .sharedRO = 0, .sharedPC = 0.25, .sharedStream = 0,
                 .lockRMW = 0};
        s.privateStreamBytes = 96ull << 10;
        s.privateStreamUtil = 2;
        s.sharedPCBytes = 128ull << 10;
        s.sharingDegree = fitDegree(2, cfg.numCores);
        s.pcWriteBurst = 2;
        s.pcReadBurst = 2;
        s.computePerMemop = 1;
    } else if (name == "water-sp") {
        // Tiny per-core molecule set, heavy compute: lowest miss rate
        // in the suite, energy dominated by the L1 caches;
        // insensitive to PCT and to the classifier k.
        s.mix = {.privateHot = 0.955, .privateStream = 0,
                 .sharedRO = 0.04, .sharedPC = 0, .sharedStream = 0,
                 .lockRMW = 0.005};
        s.privateHotBytes = 6ull << 10;
        s.privateHotUtil = 12;
        s.sharedROBytes = 16ull << 10;
        s.sharedROUtil = 8;
        s.numLocks = 128;
        s.csLines = 1;
        s.computePerMemop = 30;
        s.iFootprintLines = 96;
        s.opsPerPhase = 6000;
    } else if (name == "raytrace") {
        // Large read-shared scene traversed with low per-line reuse.
        s.mix = {.privateHot = 0.50, .privateStream = 0.10,
                 .sharedRO = 0.35, .sharedPC = 0, .sharedStream = 0,
                 .lockRMW = 0.05};
        s.sharedROBytes = 256ull << 10;
        s.sharedROUtil = 3;
        s.privateStreamBytes = 32ull << 10;
        s.privateStreamUtil = 4;
        s.privateHotUtil = 10;
        s.numLocks = 16;
        s.csLines = 1;
    } else if (name == "blackscholes") {
        // Per-core option batches: a hot set that nearly fills the L1
        // plus a single-use scan that pollutes it. At PCT 2 the scan
        // is demoted, the pollution disappears, and the miss rate
        // drops (§5.1.1).
        s.mix = {.privateHot = 0.60, .privateStream = 0.20,
                 .sharedRO = 0.20, .sharedPC = 0, .sharedStream = 0,
                 .lockRMW = 0};
        s.privateHotBytes = 24ull << 10;
        s.privateHotUtil = 10;
        s.privateStreamBytes = 48ull << 10;
        s.privateStreamUtil = 1;
        s.sharedROBytes = 128ull << 10;
        s.sharedROUtil = 8;
        s.computePerMemop = 6;
    } else if (name == "streamcluster") {
        // Shared centers re-read between frequent barriers with
        // occasional writes; point scans. Sharing misses convert to
        // word misses (PCT >= 3) and L2 waiting time collapses.
        s.mix = {.privateHot = 0.25, .privateStream = 0,
                 .sharedRO = 0.45, .sharedPC = 0.20,
                 .sharedStream = 0.10, .lockRMW = 0};
        s.sharedROBytes = 128ull << 10;
        s.sharedROUtil = 2;
        s.roWriteFrac = 0.03;
        s.sharedPCBytes = 128ull << 10;
        s.sharingDegree = fitDegree(8, cfg.numCores);
        s.pcWriteBurst = 2;
        s.pcReadBurst = 2;
        s.sharedStreamBytes = 512ull << 10;
        s.sharedStreamUtil = 1;
        s.opsPerPhase = 2000;
        s.numPhases = 8;
        s.computePerMemop = 1;
    } else if (name == "dedup") {
        // Hash-table buckets shared within groups, lock-protected
        // updates, streaming input chunks.
        s.mix = {.privateHot = 0.25, .privateStream = 0.25,
                 .sharedRO = 0, .sharedPC = 0.35, .sharedStream = 0,
                 .lockRMW = 0.15};
        s.privateStreamBytes = 64ull << 10;
        s.privateStreamUtil = 2;
        s.sharedPCBytes = 256ull << 10;
        s.sharingDegree = fitDegree(8, cfg.numCores);
        s.pcWriteBurst = 2;
        s.pcReadBurst = 2;
        s.numLocks = 64;
        s.csLines = 2;
    } else if (name == "bodytrack") {
        // Read-hot shared model (small slices revisited dozens of
        // times while resident) with occasional writes: an
        // invalidation that catches a reader early demotes it, and
        // without re-promotion (Adapt1-way) every later visit pays
        // word round-trips — the §5.4 blow-up. The leader's dense
        // bursts also make Limited_1 mis-seed readers into private
        // mode (§5.3). A single-use scan provides the capacity→word
        // miss-rate drop at PCT 2.
        s.mix = {.privateHot = 0.30, .privateStream = 0.15,
                 .sharedRO = 0.45, .sharedPC = 0.10, .sharedStream = 0,
                 .lockRMW = 0};
        s.privateHotBytes = 16ull << 10;
        s.privateHotUtil = 12;
        s.privateStreamBytes = 32ull << 10;
        s.privateStreamUtil = 1;
        s.sharedROBytes = 64ull << 10;
        s.sharedROUtil = 2;
        s.sharedROLeaderUtil = 12;
        s.roWriteFrac = 0.30;
        s.roWriteOddPhasesOnly = true;
        s.sharedPCBytes = 128ull << 10;
        s.pcWriteBurst = 4;
        s.pcReadBurst = 2;
        s.numPhases = 6;
        s.opsPerPhase = 2500;
    } else if (name == "fluidanimate") {
        // Neighbor-grid exchange with fine-grain locks.
        s.mix = {.privateHot = 0.50, .privateStream = 0.10,
                 .sharedRO = 0, .sharedPC = 0.30, .sharedStream = 0,
                 .lockRMW = 0.10};
        s.privateHotUtil = 10;
        s.privateStreamBytes = 32ull << 10;
        s.privateStreamUtil = 4;
        s.sharedPCBytes = 128ull << 10;
        s.sharingDegree = fitDegree(2, cfg.numCores);
        s.pcWriteBurst = 4;
        s.pcReadBurst = 3;
        s.numLocks = 128;
        s.csLines = 1;
    } else if (name == "canneal") {
        // Random pointer chasing over a big netlist with swap writes:
        // utilization ~1-2 dominates (Figs 1-2 motivation).
        s.mix = {.privateHot = 0.55, .privateStream = 0,
                 .sharedRO = 0.20, .sharedPC = 0.10, .sharedStream = 0,
                 .lockRMW = 0.15};
        s.sharedROBytes = 1ull << 20;
        s.sharedROUtil = 2;
        s.roWriteFrac = 0.15;
        s.sharingDegree = fitDegree(8, cfg.numCores);
        s.sharedPCBytes = 128ull << 10;
        s.pcWriteBurst = 2;
        s.pcReadBurst = 1;
        s.privateHotUtil = 8;
        s.numLocks = 64;
        s.csLines = 1;
        s.computePerMemop = 1;
    } else if (name == "dijkstra-ss") {
        // Single-source: lock-protected relaxations on a read-hot
        // distance array with rare writes; sharing misses convert to
        // words, and one-way demotion costs ~2x (§5.4).
        s.mix = {.privateHot = 0.20, .privateStream = 0,
                 .sharedRO = 0.50, .sharedPC = 0.15, .sharedStream = 0,
                 .lockRMW = 0.15};
        s.sharedROBytes = 64ull << 10;
        s.sharedROUtil = 2;
        s.roWriteFrac = 0.20;
        s.roWriteOddPhasesOnly = true;
        s.sharedPCBytes = 128ull << 10;
        s.sharingDegree = fitDegree(8, cfg.numCores);
        s.pcWriteBurst = 2;
        s.pcReadBurst = 2;
        s.numLocks = 32;
        s.csLines = 2;
        s.opsPerPhase = 2500;
        s.numPhases = 6;
        s.computePerMemop = 1;
    } else if (name == "dijkstra-ap") {
        // All-pairs: per-core graphs scanned with single-use reads
        // that pollute the hot set; capacity misses convert to words
        // at PCT 2 and the miss rate drops.
        s.mix = {.privateHot = 0.55, .privateStream = 0.15,
                 .sharedRO = 0.30, .sharedPC = 0, .sharedStream = 0,
                 .lockRMW = 0};
        s.privateHotBytes = 24ull << 10;
        s.privateHotUtil = 8;
        s.privateStreamBytes = 48ull << 10;
        s.privateStreamUtil = 1;
        s.sharedROBytes = 128ull << 10;
        s.sharedROUtil = 6;
        s.computePerMemop = 1;
    } else if (name == "patricia") {
        // Shared trie descended with low per-node reuse plus update
        // locks: both capacity and sharing misses convert to words.
        s.mix = {.privateHot = 0.25, .privateStream = 0.20,
                 .sharedRO = 0.40, .sharedPC = 0, .sharedStream = 0,
                 .lockRMW = 0.15};
        s.sharedROBytes = 256ull << 10;
        s.sharedROUtil = 2;
        s.roWriteFrac = 0.02;
        s.privateStreamBytes = 48ull << 10;
        s.privateStreamUtil = 2;
        s.numLocks = 32;
        s.csLines = 2;
        s.computePerMemop = 1;
    } else if (name == "susan") {
        // Small image kernels, heavy compute: ~lowest miss rate.
        s.mix = {.privateHot = 0.80, .privateStream = 0.10,
                 .sharedRO = 0.10, .sharedPC = 0, .sharedStream = 0,
                 .lockRMW = 0};
        s.privateHotBytes = 8ull << 10;
        s.privateHotUtil = 16;
        s.privateStreamBytes = 16ull << 10;
        s.privateStreamUtil = 8;
        s.sharedROBytes = 16ull << 10;
        s.sharedROUtil = 8;
        s.computePerMemop = 25;
        s.iFootprintLines = 80;
        s.opsPerPhase = 6000;
    } else if (name == "concomp") {
        // Giant graph scanned with utilization ~1: ~50% miss rate;
        // capacity misses convert ~1:1 into word misses with no
        // utilization gain, yet completion improves (§5.1.2).
        s.mix = {.privateHot = 0.30, .privateStream = 0,
                 .sharedRO = 0, .sharedPC = 0.10, .sharedStream = 0.60,
                 .lockRMW = 0};
        s.sharedStreamBytes = 512ull << 10;
        s.sharedStreamUtil = 1;
        s.streamWriteFrac = 0.05;
        s.sharedPCBytes = 128ull << 10;
        s.sharingDegree = fitDegree(8, cfg.numCores);
        s.pcWriteBurst = 1;
        s.pcReadBurst = 1;
        s.privateHotUtil = 8;
        s.computePerMemop = 1;
    } else if (name == "community") {
        // Modularity passes: shared graph scans with moderate reuse
        // plus locked community updates.
        s.mix = {.privateHot = 0.35, .privateStream = 0,
                 .sharedRO = 0.25, .sharedPC = 0, .sharedStream = 0.25,
                 .lockRMW = 0.15};
        s.sharedStreamBytes = 256ull << 10;
        s.sharedStreamUtil = 2;
        s.sharedROBytes = 128ull << 10;
        s.sharedROUtil = 4;
        s.roWriteFrac = 0.03;
        s.numLocks = 64;
        s.csLines = 1;
        s.computePerMemop = 1;
    } else if (name == "tsp") {
        // Branch-and-bound: hot global best-bound behind few locks;
        // private tours. Converting bound sharing misses into word
        // accesses slashes the L2-to-sharers latency (§5.1.2).
        s.mix = {.privateHot = 0.40, .privateStream = 0.10,
                 .sharedRO = 0.20, .sharedPC = 0, .sharedStream = 0,
                 .lockRMW = 0.30};
        s.privateHotUtil = 10;
        s.privateStreamBytes = 32ull << 10;
        s.privateStreamUtil = 3;
        s.sharedROBytes = 64ull << 10;
        s.sharedROUtil = 8;
        s.roWriteFrac = 0.02;
        s.numLocks = 4;
        s.csLines = 1;
        s.computePerMemop = 3;
    } else if (name == "dfs") {
        // Pointer-chasing traversal: private stacks/visited flags
        // scanned with utilization ~1 plus a big shared graph.
        s.mix = {.privateHot = 0.25, .privateStream = 0.35,
                 .sharedRO = 0, .sharedPC = 0.10, .sharedStream = 0.30,
                 .lockRMW = 0};
        s.privateStreamBytes = 64ull << 10;
        s.privateStreamUtil = 1;
        s.sharedStreamBytes = 512ull << 10;
        s.sharedStreamUtil = 1;
        s.sharedPCBytes = 64ull << 10;
        s.pcWriteBurst = 1;
        s.pcReadBurst = 1;
        s.computePerMemop = 1;
    } else if (name == "matmul") {
        // C rows accumulate privately (hot), A streams privately, B
        // streams shared: big miss rate that drops at PCT 2 when the
        // single-use streams stop polluting the C rows.
        s.mix = {.privateHot = 0.30, .privateStream = 0.35,
                 .sharedRO = 0.35, .sharedPC = 0, .sharedStream = 0,
                 .lockRMW = 0};
        s.privateHotBytes = 24ull << 10;
        s.privateHotUtil = 16;
        s.privateStreamBytes = 64ull << 10;
        s.privateStreamUtil = 3;
        s.sharedROBytes = 512ull << 10;
        s.sharedROUtil = 3;
        s.sharingDegree = fitDegree(8, cfg.numCores);
        s.computePerMemop = 1;
    } else {
        fatal("unknown benchmark '%s'", name.c_str());
    }

    s.opsPerPhase = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(s.opsPerPhase * op_scale));
    s.sharingDegree = fitDegree(s.sharingDegree, cfg.numCores);
    return s;
}

std::unique_ptr<SyntheticWorkload>
makeBenchmark(const std::string &name, const SystemConfig &cfg,
              double op_scale)
{
    return std::make_unique<SyntheticWorkload>(
        benchmarkSpec(name, cfg, op_scale), cfg);
}

const char *
benchmarkProblemSize(const std::string &name)
{
    static const std::unordered_map<std::string, const char *> sizes = {
        {"radix", "1M integers, radix 1024"},
        {"lu-nc", "512x512 matrix, 16x16 blocks"},
        {"barnes", "16K particles"},
        {"ocean-nc", "258x258 ocean"},
        {"water-sp", "512 molecules"},
        {"raytrace", "car"},
        {"blackscholes", "64K options"},
        {"streamcluster", "8192 points per block, 1 block"},
        {"dedup", "31 MB data"},
        {"bodytrack", "2 frames, 2000 particles"},
        {"fluidanimate", "5 frames, 100,000 particles"},
        {"canneal", "200,000 elements"},
        {"dijkstra-ss", "graph with 4096 nodes"},
        {"dijkstra-ap", "graph with 512 nodes"},
        {"patricia", "5000 IP address queries"},
        {"susan", "PGM picture 2.8 MB"},
        {"concomp", "graph with 2^18 nodes"},
        {"community", "graph with 2^16 nodes"},
        {"tsp", "16 cities"},
        {"dfs", "graph with 876800 nodes"},
        {"matmul", "512x512 matrix"},
    };
    auto it = sizes.find(name);
    return it == sizes.end() ? "?" : it->second;
}

} // namespace lacc
