#include "janus/power/power_model.hpp"

namespace janus {

PowerReport estimate_power(const Netlist& nl, const TechnologyNode& node,
                           const PowerOptions& opts,
                           const ActivityReport* activity) {
    ActivityReport local;
    if (!activity) {
        local = estimate_activity(nl);
        activity = &local;
    }
    const double vdd = opts.vdd_override > 0 ? opts.vdd_override : node.vdd;
    const double f_hz = opts.frequency_mhz * 1e6;
    const double v2 = vdd * vdd;

    PowerReport r;
    r.instance_dynamic_mw.assign(nl.num_instances(), 0.0);

    for (InstId i = 0; i < nl.num_instances(); ++i) {
        const CellType& ct = nl.type_of(i);
        const NetId out = nl.instance(i).output;

        // Leakage scales superlinearly with voltage (~V^2 around nominal).
        r.leakage_mw += ct.leakage_nw * 1e-6 * (v2 / (node.vdd * node.vdd));

        if (is_sequential(ct.function)) {
            // Clock pin toggles every cycle regardless of data activity.
            const double c_clk_f = 0.5 * ct.input_cap_ff;
            r.clock_mw += c_clk_f * 1e-15 * v2 * f_hz * 1e3;  // W -> mW
        }

        const double alpha = (*activity).toggle_rate[out];
        const double c_load_f = net_load_ff(nl, out, opts.wire) * 1e-15;
        const double sw_w = 0.5 * alpha * c_load_f * v2 * f_hz;
        // Internal power modeled as a fixed fraction of the switching
        // energy drawn through the cell.
        const double int_w = 0.3 * sw_w;
        r.switching_mw += sw_w * 1e3;
        r.internal_mw += int_w * 1e3;
        r.instance_dynamic_mw[i] = (sw_w + int_w) * 1e3;
    }
    return r;
}

}  // namespace janus
