#include "system/report.hh"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "sim/config.hh"
#include "sim/log.hh"
#include "sim/stats.hh"
#include "system/experiment.hh"

namespace lacc {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{}

void
Table::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        panic("table row arity %zu != header arity %zu", cells.size(),
              headers_.size());
    rows_.push_back(std::move(cells));
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i)
        width[i] = headers_[i].size();
    for (const auto &row : rows_)
        for (std::size_t i = 0; i < row.size(); ++i)
            width[i] = std::max(width[i], row[i].size());

    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            os << (i == 0 ? "" : "  ");
            os << row[i];
            for (std::size_t p = row[i].size(); p < width[i]; ++p)
                os << ' ';
        }
        os << '\n';
    };
    emit(headers_);
    std::vector<std::string> rule(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i)
        rule[i] = std::string(width[i], '-');
    emit(rule);
    for (const auto &row : rows_)
        emit(row);
}

std::string
fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    return buf;
}

std::string
fmtPct(double fraction, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f%%", precision,
                  fraction * 100.0);
    return buf;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

Json
Table::toJson() const
{
    Json j = Json::object();
    Json hdr = Json::array();
    for (const auto &h : headers_)
        hdr.push(h);
    j["headers"] = std::move(hdr);
    Json rows = Json::array();
    for (const auto &row : rows_) {
        Json r = Json::array();
        for (const auto &cell : row)
            r.push(cell);
        rows.push(std::move(r));
    }
    j["rows"] = std::move(rows);
    return j;
}

// ---------------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------------

namespace {

/** One JSON object per counter block, keys and order from its table. */
template <typename S>
Json
fieldsToJson(const S &s)
{
    Json j = Json::object();
    S::forEachField([&](const char *key, auto m) { j[key] = s.*m; });
    return j;
}

Json
histToJson(const UtilizationHistogram &h)
{
    Json j = Json::object();
    j["total"] = h.total();
    Json buckets = Json::array();
    for (std::uint32_t b = 0; b < 5; ++b)
        buckets.push(h.bucketFraction(b));
    j["paper_buckets"] = std::move(buckets);
    Json counts = Json::array();
    for (const auto c : h.counts)
        counts.push(c);
    j["counts"] = std::move(counts);
    return j;
}

Json
missesToJson(const MissBreakdown &m)
{
    Json j = Json::object();
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(MissType::NumTypes); ++i)
        j[missTypeName(static_cast<MissType>(i))] = m.counts[i];
    j["total"] = m.total();
    return j;
}

} // namespace

Json
toJson(const SystemConfig &cfg)
{
    Json j = Json::object();
    j["num_cores"] = cfg.numCores;
    j["mesh_width"] = cfg.meshWidth;
    j["cluster_size"] = cfg.clusterSize;
    j["line_size"] = cfg.lineSize;
    j["page_size"] = cfg.pageSize;
    j["l1i_size_kb"] = cfg.l1iSizeKB;
    j["l1i_assoc"] = cfg.l1iAssoc;
    j["l1d_size_kb"] = cfg.l1dSizeKB;
    j["l1d_assoc"] = cfg.l1dAssoc;
    j["l1_latency"] = cfg.l1Latency;
    j["l2_size_kb"] = cfg.l2SizeKB;
    j["l2_assoc"] = cfg.l2Assoc;
    j["l2_latency"] = cfg.l2Latency;
    j["num_mem_controllers"] = cfg.numMemControllers;
    j["dram_bandwidth_gbps"] = cfg.dramBandwidthGBps;
    j["dram_latency"] = cfg.dramLatency;
    j["network"] = networkKindName(cfg.networkKind);
    j["hop_latency"] = cfg.hopLatency;
    j["flit_width_bits"] = cfg.flitWidthBits;
    j["header_flits"] = cfg.headerFlits;
    j["word_flits"] = cfg.wordFlits;
    j["line_flits"] = cfg.lineFlits;
    j["directory"] = directoryKindName(cfg.directoryKind);
    j["ackwise_pointers"] = cfg.ackwisePointers;
    j["protocol"] = protocolKindName(cfg.protocolKind);
    j["classifier"] = classifierKindName(cfg.classifierKind);
    j["pct"] = cfg.pct;
    j["rat_max"] = cfg.ratMax;
    j["n_rat_levels"] = cfg.nRatLevels;
    j["classifier_k"] = cfg.classifierK;
    j["complete_learning_shortcut"] = cfg.completeLearningShortcut;
    j["rnuca_enabled"] = cfg.rnucaEnabled;
    j["faults"] = faultKindName(cfg.faultKind);
    j["fault_rate"] = cfg.faultRate;
    j["fault_seed"] = cfg.faultSeed;
    j["seed"] = cfg.seed;
    return j;
}

Json
toJson(const SystemStats &stats)
{
    CoreStats sum;
    for (const auto &c : stats.perCore)
        sum += c;

    Json j = Json::object();
    j["cores"] = static_cast<std::uint64_t>(stats.perCore.size());
    j["completion_time"] = stats.completionTime();
    j["core_totals"] = fieldsToJson(sum);
    j["latency"] = fieldsToJson(sum.latency);
    j["latency"]["total"] = sum.latency.total();
    j["energy"] = fieldsToJson(stats.energy);
    j["energy"]["total"] = stats.energy.total();
    j["misses"] = missesToJson(sum.misses);
    j["l1d_miss_rate"] = stats.l1dMissRate();
    j["l1i"] = fieldsToJson(sum.l1i);
    j["l1d"] = fieldsToJson(sum.l1d);
    j["l2"] = fieldsToJson(stats.l2);
    j["network"] = fieldsToJson(stats.network);
    j["protocol"] = fieldsToJson(stats.protocol);
    j["faults"] = fieldsToJson(stats.faults);
    j["eviction_util"] = histToJson(stats.evictionUtil);
    j["invalidation_util"] = histToJson(stats.invalidationUtil);
    return j;
}

Json
toJson(const RunResult &result)
{
    Json j = Json::object();
    j["completion_time"] = result.completionTime;
    j["energy_total"] = result.energyTotal;
    j["functional_errors"] = result.functionalErrors;
    j["sim_ops"] = result.simOps;
    j["verify_violations"] = result.verifyViolations;
    j["stats"] = toJson(result.stats);
    return j;
}

// ---------------------------------------------------------------------------
// Golden-hash stats signature (tests/test_determinism.cc)
// ---------------------------------------------------------------------------

namespace {

/** Order-sensitive 64-bit FNV-1a accumulator over u64 words. */
struct Digest
{
    std::uint64_t h = 14695981039346656037ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xFF;
            h *= 1099511628211ULL;
        }
    }
};

/** Every field of a counter block, in table order. */
template <typename S>
void
addFields(Digest &d, const S &s)
{
    S::forEachField([&](const char *, auto m) { d.add(s.*m); });
}

void
addHist(Digest &d, const UtilizationHistogram &h)
{
    for (const auto v : h.counts)
        d.add(v);
}

} // namespace

std::uint64_t
statsSignature(const SystemStats &stats)
{
    Digest d;
    d.add(stats.perCore.size());
    for (const auto &c : stats.perCore) {
        addFields(d, c);
        d.add(c.finishTime);
        addFields(d, c.latency);
        for (const auto m : c.misses.counts)
            d.add(m);
        addFields(d, c.l1i);
        addFields(d, c.l1d);
    }
    addFields(d, stats.l2);
    addFields(d, stats.network);
    addFields(d, stats.protocol);
    // Energy (floating point) and faults are left out on purpose; see
    // report.hh.
    addHist(d, stats.evictionUtil);
    addHist(d, stats.invalidationUtil);
    return d.h;
}

} // namespace lacc
