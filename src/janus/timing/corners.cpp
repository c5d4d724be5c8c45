#include "janus/timing/corners.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "janus/timing/timing_graph.hpp"

namespace janus {

std::vector<TimingCorner> standard_corners() {
    return {
        {"ss_lowv_hot", 1.30},  // slow process, low voltage, 125C
        {"tt_nom", 1.00},
        {"ff_highv_cold", 0.72},  // fast process, high voltage, -40C
    };
}

MultiCornerReport run_multi_corner(const Netlist& nl, const StaOptions& base,
                                   const std::vector<TimingCorner>& corners) {
    MultiCornerReport out;
    // A uniform derate k scales every path delay by k; one nominal analysis
    // provides all arrivals, and each corner rescales the endpoint ones.
    TimingGraph tg(nl, base);
    tg.analyze();
    const TimingReport nominal = tg.report();
    const std::vector<double>& arrival = tg.arrivals();

    const bool has_flops = !nl.sequential_instances().empty();
    out.worst_setup_slack_ps = std::numeric_limits<double>::infinity();
    out.worst_hold_slack_ps = std::numeric_limits<double>::infinity();
    for (const TimingCorner& c : corners) {
        TimingReport r = nominal;
        const double k = c.delay_derate;
        r.critical_delay_ps = nominal.critical_delay_ps * k;
        r.fmax_ghz = r.critical_delay_ps > 0 ? 1000.0 / r.critical_delay_ps : 0;
        // Setup: re-evaluate every endpoint against its derated arrival.
        // slack(e) = required(e) - arrival(e) * k over the endpoint set the
        // nominal summary uses; constraints (period, period - setup) do not
        // derate.
        double worst = std::numeric_limits<double>::infinity();
        NetId worst_net = kNoNet;
        r.tns_ps = 0.0;
        for (const TimingEndpoint& e : tg.endpoints()) {
            const double s = e.required_ps - arrival[e.net] * k;
            if (s < 0) r.tns_ps += s;
            if (s < worst) {
                worst = s;
                worst_net = e.net;
            }
        }
        r.wns_ps = std::isfinite(worst) ? worst : 0.0;
        r.worst_endpoint = worst_net;
        // Hold: the min-path arrival scales with the derate; the hold
        // window does not. slack = k * min_arrival - hold. Vacuous (0)
        // for combinational designs with no capture flops.
        r.hold_wns_ps =
            has_flops ? (nominal.hold_wns_ps + base.hold_ps) * k - base.hold_ps
                      : 0.0;
        if (r.wns_ps < out.worst_setup_slack_ps) {
            out.worst_setup_slack_ps = r.wns_ps;
            out.worst_setup_corner = c.name;
        }
        if (r.hold_wns_ps < out.worst_hold_slack_ps) {
            out.worst_hold_slack_ps = r.hold_wns_ps;
            out.worst_hold_corner = c.name;
        }
        out.reports.push_back(std::move(r));
    }
    return out;
}

}  // namespace janus
