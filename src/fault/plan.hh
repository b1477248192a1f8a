/**
 * @file
 * Config-keyed fault-plan registry — the fault layer's analogue of
 * net/factory.hh and of the protocol name table in
 * protocol/protocol.hh, built on the shared named-registry helpers
 * (sim/named_registry.hh).
 *
 * A FaultPlan resolves the SystemConfig's (faultKind, faultRate,
 * faultSeed) triple into concrete per-event probabilities and recovery
 * knobs. Four plans ship:
 *
 *  - none:  all rates zero; the injector is never constructed, so the
 *           hot path pays exactly one untaken branch (pinned by
 *           bench_micro).
 *  - links: lossy interconnect — per-link-traversal Bernoulli drops
 *           and corruptions, recovered by the transport's
 *           NACK/timeout/retransmit path (protocol/messages.hh).
 *  - soft:  SRAM soft errors — per-directory-touch bit flips in L1/L2
 *           line data and directory metadata, recovered by the SECDED
 *           model (fault/secded.hh): correct single-bit, scrub clean
 *           double-bit lines from DRAM, abort on unrecoverable state.
 *  - storm: both at elevated rates — the stress plan.
 *
 * All probabilities scale linearly with --fault-rate, so one knob
 * sweeps a plan's intensity without changing its shape.
 */

#ifndef LACC_FAULT_PLAN_HH
#define LACC_FAULT_PLAN_HH

#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/types.hh"

namespace lacc {

/** Resolved per-event fault probabilities and recovery parameters. */
struct FaultPlan
{
    FaultKind kind = FaultKind::None;

    // ---- Lossy links (per link traversal) -----------------------------
    double linkDropRate = 0.0;    //!< message lost; detected by timeout
    double linkCorruptRate = 0.0; //!< message mangled; NACKed at dst

    // ---- Soft errors (per directory transaction, per structure) -------
    double softErrorRate = 0.0;   //!< bit-flip strike probability
    double doubleBitFraction = 0.0; //!< strikes hitting two bits

    // ---- ECC coverage (per structure; shipped plans protect all) ------
    bool protectL1 = true;  //!< L1 line data under SECDED
    bool protectL2 = true;  //!< L2 line data under SECDED
    bool protectDir = true; //!< directory metadata under SECDED

    // ---- Recovery costs ------------------------------------------------
    std::uint32_t retryBudget = 8;   //!< max send attempts per message
    Cycle retryTimeout = 64;         //!< base retransmit timeout (cycles)
    Cycle eccCorrectLatency = 3;     //!< stall per corrected single bit

    /** Any link-fault probability non-zero? */
    bool linksActive() const
    {
        return linkDropRate > 0.0 || linkCorruptRate > 0.0;
    }

    /** Any soft-error probability non-zero? */
    bool softActive() const { return softErrorRate > 0.0; }
};

/**
 * Resolve @p cfg's fault configuration into a concrete plan.
 * panic()s if no plan is registered for cfg.faultKind.
 */
FaultPlan makeFaultPlan(const SystemConfig &cfg);

/** Registered plan names in listing order ("none", "links", ...). */
const std::vector<std::string> &faultNames();

/** Factory key for @p cfg's fault kind. */
const char *faultNameFor(const SystemConfig &cfg);

/** Set cfg.faultKind from a plan name; fatal() on unknown names. */
void applyFaultName(SystemConfig &cfg, const std::string &name);

} // namespace lacc

#endif // LACC_FAULT_PLAN_HH
