#include "janus/power/power_intent.hpp"

#include <stdexcept>

namespace janus {

PowerIntent::PowerIntent(const Netlist& nl, double default_voltage) {
    PowerDomain def;
    def.name = "DEFAULT";
    def.voltage = default_voltage;
    domains_.push_back(std::move(def));
    domain_of_.assign(nl.num_instances(), 0);
}

void PowerIntent::add_domain(PowerDomain domain) {
    const std::size_t idx = domains_.size();
    for (const InstId i : domain.members) {
        if (i >= domain_of_.size()) {
            throw std::out_of_range("PowerIntent::add_domain: bad instance id");
        }
        if (domain_of_[i] != 0) {
            throw std::invalid_argument(
                "PowerIntent::add_domain: instance already in a domain");
        }
        domain_of_[i] = idx;
    }
    domains_.push_back(std::move(domain));
}

std::size_t PowerIntent::isolation_cells_needed(const Netlist& nl) const {
    std::size_t count = 0;
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        const Net& net = nl.net(n);
        if (net.driver_kind != DriverKind::Instance) continue;
        const std::size_t src = domain_of_[net.driver_inst];
        if (!domains_[src].can_shutdown) continue;
        // One isolation cell per crossing sink domain.
        std::vector<bool> seen(domains_.size(), false);
        for (const SinkRef& s : nl.sinks(n)) {
            const std::size_t dst = domain_of_[s.inst()];
            if (dst != src && !seen[dst]) {
                seen[dst] = true;
                ++count;
            }
        }
    }
    return count;
}

std::size_t PowerIntent::level_shifters_needed(const Netlist& nl) const {
    std::size_t count = 0;
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        const Net& net = nl.net(n);
        if (net.driver_kind != DriverKind::Instance) continue;
        const std::size_t src = domain_of_[net.driver_inst];
        std::vector<bool> seen(domains_.size(), false);
        for (const SinkRef& s : nl.sinks(n)) {
            const std::size_t dst = domain_of_[s.inst()];
            if (dst != src && !seen[dst] &&
                domains_[dst].voltage != domains_[src].voltage) {
                seen[dst] = true;
                ++count;
            }
        }
    }
    return count;
}

PowerReport PowerIntent::estimate(const Netlist& nl, const TechnologyNode& node,
                                  const PowerOptions& opts) const {
    // Flat estimate at nominal voltage, then per-instance rescale.
    const ActivityReport activity = estimate_activity(nl);
    const PowerReport flat = estimate_power(nl, node, opts, &activity);

    PowerReport r;
    r.instance_dynamic_mw.assign(nl.num_instances(), 0.0);
    const double vnom = node.vdd;
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        const PowerDomain& d = domains_[domain_of_[i]];
        const double vscale = (d.voltage * d.voltage) / (vnom * vnom);
        const double duty = d.can_shutdown ? d.on_fraction : 1.0;
        const double dyn = flat.instance_dynamic_mw[i] * vscale * duty;
        r.instance_dynamic_mw[i] = dyn;
        r.switching_mw += dyn / 1.3;          // undo the 0.3 internal split
        r.internal_mw += dyn - dyn / 1.3;
        const CellType& ct = nl.type_of(i);
        double leak = ct.leakage_nw * 1e-6 * vscale;
        if (d.can_shutdown) leak *= d.on_fraction;
        r.leakage_mw += leak;
        if (is_sequential(ct.function)) {
            const double c_clk_f = 0.5 * ct.input_cap_ff;
            r.clock_mw += c_clk_f * 1e-15 * (d.voltage * d.voltage) *
                          opts.frequency_mhz * 1e6 * duty * 1e3;
        }
    }
    // Overhead: isolation cells and level shifters as 2x-INV equivalents.
    const auto inv = nl.library().find_function(CellFunction::Inv);
    if (inv) {
        const double inv_leak_mw = nl.library().cell(*inv).leakage_nw * 1e-6;
        r.leakage_mw += 2.0 * inv_leak_mw *
                        static_cast<double>(isolation_cells_needed(nl) +
                                            level_shifters_needed(nl));
    }
    return r;
}

}  // namespace janus
