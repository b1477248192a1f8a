/**
 * @file
 * Shared CLI-override plumbing: both CLIs (bench/lacc_bench.cc,
 * bench/lacc_verify.cc) accept --protocol/--network/--faults
 * overrides that rewrite SystemConfigs built elsewhere (experiment
 * definitions, fuzz configs). The validation, application, and
 * "you are overriding a deliberate sweep" diagnostics live here once,
 * beside the strict integer parse both CLIs use for their options.
 */

#ifndef LACC_SIM_OVERRIDES_HH
#define LACC_SIM_OVERRIDES_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace lacc {

struct SystemConfig;

/** CLI-sourced config overrides; default-constructed = none. */
struct ConfigOverrides
{
    std::string protocol; //!< coherence protocol name; empty = keep
    std::string network;  //!< interconnect topology name; empty = keep
    std::string faults;   //!< fault-plan name; empty = keep
    std::optional<double> faultRate; //!< base fault rate; unset = keep
    std::optional<std::uint64_t> faultSeed; //!< fault seed; unset = keep

    /** Any override set? */
    bool
    any() const
    {
        return !protocol.empty() || !network.empty() || !faults.empty() ||
               faultRate.has_value() || faultSeed.has_value();
    }

    /**
     * Validate the names against their factories and a set faultRate
     * against [0, 1]. Unknown names print the one-line "unknown X
     * (valid: ...)" diagnostic to stderr, a bad rate its own line;
     * either returns false (CLIs exit 2).
     */
    bool validateOrReport() const;

    /** Rewrite @p cfg (fatal() on unknown names — validate first). */
    void apply(SystemConfig &cfg) const;

    /**
     * A --protocol/--network override rewrites job configs but not
     * their labels: an experiment that deliberately sweeps protocols
     * or topologies would print rows whose label names one variant
     * and whose numbers came from another. Warn loudly when any of
     * @p cfgs selects something the override replaces.
     */
    void warnIfOverridingSweep(
        const std::vector<const SystemConfig *> &cfgs) const;
};

/**
 * Strict full-token decimal parse: every character must be a digit,
 * at most 19 of them, and the value must land in [lo, hi]. "12x",
 * "0x10", "-3", "+2", " 5" and "" are all rejected, so a typo never
 * silently runs something other than what was asked for.
 */
bool parseU64(const char *s, std::uint64_t lo, std::uint64_t hi,
              std::uint64_t &out);

/**
 * parseU64 the value @p s of CLI option @p name, or print the valid
 * range to stderr and exit 2 (the CLIs' usage-error status).
 */
std::uint64_t parseU64OrExit(const char *name, const char *s,
                             std::uint64_t lo, std::uint64_t hi);

} // namespace lacc

#endif // LACC_SIM_OVERRIDES_HH
