#include "sim/stats.hh"

#include <algorithm>

namespace lacc {

std::uint64_t
MissBreakdown::total() const
{
    std::uint64_t sum = 0;
    for (auto c : counts)
        sum += c;
    return sum;
}

MissBreakdown &
MissBreakdown::operator+=(const MissBreakdown &o)
{
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts[i] += o.counts[i];
    return *this;
}

void
UtilizationHistogram::record(std::uint64_t utilization)
{
    const auto u = std::min<std::uint64_t>(utilization, kMaxUtil);
    ++counts[u];
}

std::uint64_t
UtilizationHistogram::total() const
{
    std::uint64_t sum = 0;
    for (auto c : counts)
        sum += c;
    return sum;
}

double
UtilizationHistogram::bucketFraction(std::uint32_t bucket) const
{
    const auto t = total();
    if (t == 0)
        return 0.0;
    // Paper buckets: {1}, {2,3}, {4,5}, {6,7}, {>=8}; utilization 0
    // (never used before removal) is folded into the first bucket.
    std::uint64_t n = 0;
    switch (bucket) {
      case 0:
        n = counts[0] + counts[1];
        break;
      case 1:
        n = counts[2] + counts[3];
        break;
      case 2:
        n = counts[4] + counts[5];
        break;
      case 3:
        n = counts[6] + counts[7];
        break;
      default:
        for (std::uint32_t u = 8; u <= kMaxUtil; ++u)
            n += counts[u];
        break;
    }
    return static_cast<double>(n) / static_cast<double>(t);
}

double
UtilizationHistogram::fractionBelow(std::uint64_t u) const
{
    const auto t = total();
    if (t == 0)
        return 0.0;
    std::uint64_t n = 0;
    for (std::uint64_t i = 0; i < u && i <= kMaxUtil; ++i)
        n += counts[i];
    return static_cast<double>(n) / static_cast<double>(t);
}

UtilizationHistogram &
UtilizationHistogram::operator+=(const UtilizationHistogram &o)
{
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts[i] += o.counts[i];
    return *this;
}

CoreStats &
CoreStats::operator+=(const CoreStats &o)
{
    addFields(*this, o);
    finishTime = std::max(finishTime, o.finishTime);
    latency += o.latency;
    misses += o.misses;
    l1i += o.l1i;
    l1d += o.l1d;
    return *this;
}

Cycle
SystemStats::completionTime() const
{
    Cycle t = 0;
    for (const auto &c : perCore)
        t = std::max(t, c.finishTime);
    return t;
}

LatencyBreakdown
SystemStats::totalLatency() const
{
    LatencyBreakdown b;
    for (const auto &c : perCore)
        b += c.latency;
    return b;
}

MissBreakdown
SystemStats::totalMisses() const
{
    MissBreakdown m;
    for (const auto &c : perCore)
        m += c.misses;
    return m;
}

std::uint64_t
SystemStats::totalL1dAccesses() const
{
    std::uint64_t n = 0;
    for (const auto &c : perCore)
        n += c.l1d.accesses();
    return n;
}

double
SystemStats::l1dMissRate() const
{
    const auto a = totalL1dAccesses();
    if (a == 0)
        return 0.0;
    return static_cast<double>(totalMisses().total()) /
           static_cast<double>(a);
}

} // namespace lacc
