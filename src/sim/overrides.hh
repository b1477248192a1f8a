/**
 * @file
 * Shared CLI-override plumbing: both CLIs (bench/lacc_bench.cc,
 * bench/lacc_verify.cc) accept --protocol/--network/--faults
 * overrides that rewrite SystemConfigs built elsewhere (experiment
 * definitions, fuzz configs). The validation, application, and
 * "you are overriding a deliberate sweep" diagnostics live here once.
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
    bool faultSeedSet = false;       //!< faultSeed holds a --fault-seed
    std::uint64_t faultSeed = 0;     //!< fault-schedule seed override

    /** Any override set? */
    bool
    any() const
    {
        return !protocol.empty() || !network.empty() || !faults.empty() ||
               faultRate.has_value() || faultSeedSet;
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

} // namespace lacc

#endif // LACC_SIM_OVERRIDES_HH
