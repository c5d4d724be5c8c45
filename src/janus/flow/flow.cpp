#include "janus/flow/flow.hpp"

#include <sstream>

#include "janus/flow/flow_engine.hpp"

namespace janus {

std::string FlowParams::check() const {
    std::ostringstream err;
    if (workers <= 0) {
        err << "workers must be > 0 (1 = serial), got " << workers;
    } else if (utilization <= 0.0 || utilization > 1.0) {
        err << "utilization must be in (0, 1], got " << utilization;
    } else if (optimize_rounds < 0) {
        err << "optimize_rounds must be >= 0, got " << optimize_rounds;
    } else if (placer_iterations <= 0) {
        err << "placer_iterations must be > 0, got " << placer_iterations;
    } else if (sa_moves_per_cell < 0) {
        err << "sa_moves_per_cell must be >= 0 (0 disables), got "
            << sa_moves_per_cell;
    } else if (router_iterations <= 0) {
        err << "router_iterations must be > 0, got " << router_iterations;
    } else if (routing_layers <= 0) {
        err << "routing_layers must be > 0, got " << routing_layers;
    } else if (scan_chains <= 0 && enabled(FlowStageMask::Scan)) {
        err << "scan_chains must be > 0 when scan is enabled, got "
            << scan_chains;
    } else if ((static_cast<std::uint32_t>(stages) &
                ~static_cast<std::uint32_t>(FlowStageMask::All)) != 0) {
        err << "stages mask has unknown bits set";
    }
    return err.str();
}

double FlowResult::cost() const {
    // Normalized weighted sum; overflow and illegality are heavily
    // penalized so the tuner treats them as failures.
    double c = area_um2 * 1e-3 + hpwl_um * 1e-3 +
               static_cast<double>(route_wirelength) * 1e-3 +
               critical_delay_ps * 1e-2 + total_power_mw;
    if (wns_ps < 0) c += -wns_ps * 0.1;
    c += route_overflow * 10.0;
    if (!legal) c *= 10.0;
    return c;
}

FlowResult run_flow(const Netlist& input, const TechnologyNode& node,
                    const FlowParams& params) {
    FlowContext ctx(input, node, params);
    return FlowEngine().run(ctx);
}

}  // namespace janus
