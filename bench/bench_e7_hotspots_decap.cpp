/// E7 (Rossi): "In ASICs for networking we face products with switching
/// activities in excess of 5x compared to standard processors: the
/// management of power density and the removal of hot spots cannot rely
/// on any automatic tool. The identification of the most critical
/// situations and the on-the-fly introduction of decoupling cells ...
/// should be one of the key parameters the tool itself should take care."
///
/// Reproduction: a placed design's per-instance currents load the power
/// grid; the networking case scales activity 5x. The automatic loop
/// (find worst hotspot -> insert decap -> re-verify) is then run. The
/// shape: 5x activity creates IR hotspots the baseline design lacks, and
/// automatic decap insertion removes them.

#include <cstdio>

#include "bench_common.hpp"
#include "janus/place/analytic_place.hpp"
#include "janus/place/legalize.hpp"
#include "janus/power/decap.hpp"
#include "janus/power/power_model.hpp"

using namespace janus;

int main() {
    bench::banner("E7 bench_e7_hotspots_decap", "Domenico Rossi (ST)",
                  "5x switching creates hotspots; tools must auto-insert decap");
    const auto lib = bench::make_lib();
    const auto node = *find_node("28nm");

    GeneratorConfig cfg;
    cfg.num_gates = 12000;
    cfg.num_flops = 200;
    cfg.seed = 21;
    Netlist nl = generate_random(lib, cfg);
    const PlacementArea area = make_placement_area(nl, node, 0.8);
    analytic_place(nl, area);
    legalize(nl, area);

    PowerOptions popts;
    popts.frequency_mhz = 1200;  // networking-class clock
    const PowerReport pr = estimate_power(nl, node, popts);

    PowerGridOptions gopts;
    gopts.segment_res_ohm = 4.0;  // thin 28 nm grid straps
    gopts.pad_stride = 16;        // pad-limited design
    std::printf("%10s %12s %12s %10s %10s %10s %10s\n", "activity", "worst_mV",
                "avg_mV", "hotspots", "decaps", "post_mV", "post_hs");
    bool base_clean = false, net_hot = false, decap_works = false;
    for (const double activity_scale : {1.0, 5.0}) {
        PowerGrid grid(area.die, node.vdd, gopts);
        grid.load_currents(nl, pr.instance_dynamic_mw);
        // Networking hot block: the switching-heavy datapath cluster sits
        // in the die center; its activity (not the whole die's) is 5x.
        if (activity_scale > 1.0) {
            const std::size_t c0 = grid.cols() * 3 / 8, c1 = grid.cols() * 5 / 8;
            const std::size_t r0 = grid.rows() * 3 / 8, r1 = grid.rows() * 5 / 8;
            for (std::size_t r = r0; r < r1; ++r) {
                for (std::size_t c = c0; c < c1; ++c) {
                    grid.add_current(c, r,
                                     (activity_scale - 1.0) * grid.current_at(c, r));
                }
            }
        }
        DecapOptions dopts;
        dopts.decap_pf_per_step = 30.0;
        dopts.max_steps = 2000;
        const DecapResult res = insert_decaps(grid, dopts);
        std::printf("%9.0fx %12.1f %12.1f %10zu %10d %10.1f %10zu\n",
                    activity_scale, res.before.worst_drop_v * 1e3,
                    res.before.avg_drop_v * 1e3, res.initial_hotspots.size(),
                    res.decap_steps_used, res.after.worst_drop_v * 1e3,
                    res.remaining_hotspots.size());
        if (activity_scale == 1.0) {
            base_clean = res.initial_hotspots.empty();
        } else {
            net_hot = !res.initial_hotspots.empty();
            decap_works = res.remaining_hotspots.size() <
                              res.initial_hotspots.size() / 4 &&
                          res.after.worst_drop_v < res.before.worst_drop_v;
        }
    }
    std::printf("\npaper claim: standard-activity designs are fine; networking\n"
                "(5x activity) needs automatic hotspot removal via decap.\n\n");
    bool ok = bench::shape_check("baseline activity has no hotspots", base_clean);
    ok &= bench::shape_check("5x activity creates hotspots", net_hot);
    ok &= bench::shape_check("automatic decap removes >75% of hotspots and lowers drop",
                             decap_works);
    return ok ? 0 : 1;
}
