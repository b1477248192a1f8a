/**
 * @file
 * Network factory: builds the NetworkModel selected by a
 * SystemConfig, and maps topology names <-> configurations so the
 * harness can sweep fabrics by name (`lacc_bench --network`),
 * mirroring the protocol name table (protocol/protocol.hh).
 */

#ifndef LACC_NET_FACTORY_HH
#define LACC_NET_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "net/network.hh"

namespace lacc {

/**
 * Build the interconnect selected by @p cfg.networkKind. The returned
 * model references @p energy (owned by the enclosing Multicore, which
 * must outlive it).
 */
std::unique_ptr<NetworkModel> makeNetwork(const SystemConfig &cfg,
                                          EnergyModel &energy);

/**
 * Registered topology names, in factory order:
 * {"mesh", "torus", "ring", "xbar"}.
 */
const std::vector<std::string> &networkNames();

/** Name the factory would select for @p cfg. */
const char *networkNameFor(const SystemConfig &cfg);

/**
 * Reconfigure @p cfg to select the named topology (harness sweeps by
 * name). fatal() on an unknown name, listing the valid ones.
 */
void applyNetworkName(SystemConfig &cfg, const std::string &name);

} // namespace lacc

#endif // LACC_NET_FACTORY_HH
