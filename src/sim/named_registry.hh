/**
 * @file
 * Shared helpers for the config-keyed name tables (protocol,
 * network, fault plan). Each keeps a flat table of entries —
 * `{name, kind}`, plus `make` where a factory builds an object — as
 * its single registration point; the lookup/listing/diagnostic logic
 * lives here once, so every table resolves names, lists itself
 * (`--list-*`), and rejects unknown names with the same
 * "unknown X (known: ...)" shape.
 *
 * An Entry type only needs two fields to participate:
 *   const char *name;   // stable CLI-facing identifier
 *   Kind kind;          // the SystemConfig enum the factory keys on
 */

#ifndef LACC_SIM_NAMED_REGISTRY_HH
#define LACC_SIM_NAMED_REGISTRY_HH

#include <cstddef>
#include <string>
#include <vector>

#include "sim/log.hh"

namespace lacc {
namespace registry {

/** "a, b, c" — the form every unknown-name diagnostic lists. */
inline std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const auto &n : names)
        out += (out.empty() ? "" : ", ") + n;
    return out;
}

/** Entry whose kind matches; panic() if the table has no such kind. */
template <typename Entry, std::size_t N, typename Kind>
const Entry &
entryForKind(const Entry (&table)[N], Kind kind, const char *what)
{
    for (const auto &e : table)
        if (e.kind == kind)
            return e;
    panic("no %s registered for kind %d", what,
          static_cast<int>(kind));
}

/** Entry whose name matches, or nullptr. */
template <typename Entry, std::size_t N>
const Entry *
entryForName(const Entry (&table)[N], const std::string &name)
{
    for (const auto &e : table)
        if (name == e.name)
            return &e;
    return nullptr;
}

/** Registered names in table (= CLI listing) order. */
template <typename Entry, std::size_t N>
std::vector<std::string>
entryNames(const Entry (&table)[N])
{
    std::vector<std::string> out;
    out.reserve(N);
    for (const auto &e : table)
        out.emplace_back(e.name);
    return out;
}

/** Entry whose name matches; fatal() with the known names if none. */
template <typename Entry, std::size_t N>
const Entry &
entryForNameOrFatal(const Entry (&table)[N], const char *what,
                    const std::string &name)
{
    if (const Entry *e = entryForName(table, name))
        return *e;
    fatal("unknown %s '%s' (known: %s)", what, name.c_str(),
          joinNames(entryNames(table)).c_str());
}

/**
 * CLI-flavored validation: true when @p value is one of @p names,
 * else print the usage-error diagnostic to stderr and return false
 * (callers exit 2). Both CLIs funnel their --protocol/--network/
 * --faults arguments through this one implementation.
 */
bool validateName(const char *what, const std::string &value,
                  const std::vector<std::string> &names);

} // namespace registry
} // namespace lacc

#endif // LACC_SIM_NAMED_REGISTRY_HH
