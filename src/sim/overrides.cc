#include "sim/overrides.hh"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "fault/plan.hh"
#include "net/network.hh"
#include "protocol/protocol.hh"
#include "sim/config.hh"
#include "sim/named_registry.hh"

namespace lacc {

bool
ConfigOverrides::validateOrReport() const
{
    bool ok = true;
    if (!protocol.empty() &&
        !registry::validateName("protocol", protocol, protocolNames()))
        ok = false;
    if (!network.empty() &&
        !registry::validateName("network", network, networkNames()))
        ok = false;
    if (!faults.empty() &&
        !registry::validateName("fault plan", faults, faultNames()))
        ok = false;
    // Written so that NaN fails too.
    if (faultRate && !(*faultRate >= 0.0 && *faultRate <= 1.0)) {
        std::fprintf(stderr,
                     "--fault-rate %g out of range [0, 1]\n", *faultRate);
        ok = false;
    }
    return ok;
}

void
ConfigOverrides::apply(SystemConfig &cfg) const
{
    if (!protocol.empty())
        applyProtocolName(cfg, protocol);
    if (!network.empty())
        applyNetworkName(cfg, network);
    if (!faults.empty())
        applyFaultName(cfg, faults);
    if (faultRate)
        cfg.faultRate = *faultRate;
    if (faultSeed)
        cfg.faultSeed = *faultSeed;
}

void
ConfigOverrides::warnIfOverridingSweep(
    const std::vector<const SystemConfig *> &cfgs) const
{
    const auto warn_dim = [&cfgs](const char *what,
                                  const std::string &value,
                                  const char *(*name_for)(
                                      const SystemConfig &)) {
        if (value.empty())
            return;
        std::size_t overridden = 0;
        for (const SystemConfig *cfg : cfgs)
            if (value != name_for(*cfg))
                ++overridden;
        if (overridden > 0) {
            std::fprintf(stderr,
                         "[bench] warning: --%s %s overrides"
                         " %zu/%zu jobs whose configs select a"
                         " different %s; labels and table rows"
                         " keep their original %s names\n",
                         what, value.c_str(), overridden,
                         cfgs.size(), what, what);
        }
    };
    warn_dim("protocol", protocol, protocolNameFor);
    warn_dim("network", network, networkNameFor);
    warn_dim("faults", faults, faultNameFor);
}

bool
parseU64(const char *s, std::uint64_t lo, std::uint64_t hi,
         std::uint64_t &out)
{
    if (s == nullptr || *s == '\0')
        return false;
    std::uint64_t v = 0;
    int digits = 0;
    for (const char *p = s; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9')
            return false;
        if (++digits > 19)
            return false;
        v = v * 10 + static_cast<std::uint64_t>(*p - '0');
    }
    if (v < lo || v > hi)
        return false;
    out = v;
    return true;
}

std::uint64_t
parseU64OrExit(const char *name, const char *s, std::uint64_t lo,
               std::uint64_t hi)
{
    std::uint64_t v = 0;
    if (!parseU64(s, lo, hi, v)) {
        std::fprintf(stderr,
                     "%s wants an integer in [%" PRIu64 ", %" PRIu64
                     "], got '%s'\n",
                     name, lo, hi, s);
        std::exit(2);
    }
    return v;
}

} // namespace lacc
