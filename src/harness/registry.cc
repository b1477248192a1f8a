#include "harness/registry.hh"

#include "sim/log.hh"

namespace lacc::harness {

std::vector<Job>
Experiment::jobs() const
{
    const auto label = [this](const std::string &a, const std::string &b) {
        std::string out = tag;
        for (const std::string *part : {&a, &b})
            if (!part->empty())
                out += (out.empty() ? "" : " ") + *part;
        return out;
    };
    std::vector<Job> out(points.size() * benches.size());
    for (std::size_t p = 0; p < points.size(); ++p)
        for (std::size_t b = 0; b < benches.size(); ++b)
            out[index(p, b)] = {benches[b], points[p].cfg,
                                benchMajor
                                    ? label(benches[b], points[p].label)
                                    : label(points[p].label, benches[b])};
    return out;
}

const JobResult &
Sweep::at(std::size_t p, std::size_t b) const
{
    const std::size_t np = exp.points.size(), nb = exp.benches.size();
    if (p >= np || b >= nb || results.size() != np * nb)
        panic("experiment '%s': no run at point %zu, bench %zu of %zu x"
              " %zu (%zu results)",
              exp.name.c_str(), p, b, np, nb, results.size());
    return results[exp.index(p, b)];
}

std::vector<const Experiment *>
match(const std::string &filter)
{
    std::vector<const Experiment *> out;
    for (const auto &e : experiments())
        if (e.name.find(filter) != std::string::npos)
            out.push_back(&e);
    return out;
}

} // namespace lacc::harness
