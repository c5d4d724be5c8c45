/// E8 (Rossi): "Usually and universally DFT is considered a front end
/// activity, but is this still true? Why is it needed to perform, later
/// during the implementation, the scan chain reordering to alleviate the
/// congestion ...? A radical change in the approach is required."
///
/// Reproduction: scan chains stitched in front-end (instance-id) order on
/// a placed design versus placement-aware reordering. Rows report chain
/// wirelength and routed congestion both ways. The shape: front-end order
/// wastes enormous wirelength; reordering recovers most of it and lowers
/// routing pressure.

#include <cstdio>

#include "bench_common.hpp"
#include "janus/dft/scan.hpp"
#include "janus/place/analytic_place.hpp"
#include "janus/place/congestion.hpp"
#include "janus/place/legalize.hpp"

using namespace janus;

int main() {
    bench::banner("E8 bench_e8_scan_reorder", "Domenico Rossi (ST)",
                  "scan reorder during implementation alleviates congestion");
    const auto lib = bench::make_lib();
    const auto node = *find_node("28nm");

    std::printf("%8s %8s %12s %12s %9s %12s %12s\n", "flops", "chains",
                "frontend_um", "reorder_um", "saving", "demand_fe", "demand_ro");
    bool all_better = true, big_savings = true, congestion_drops = true;
    for (const std::size_t flops : {100u, 300u, 600u}) {
        GeneratorConfig cfg;
        cfg.num_gates = flops * 8;
        cfg.num_flops = flops;
        cfg.seed = 31;
        Netlist nl = generate_random(lib, cfg);
        ScanInsertion scan = insert_scan(nl, 4);
        const PlacementArea area = make_placement_area(nl, node, 0.65);
        analytic_place(nl, area);
        legalize(nl, area);

        const auto cong_before = estimate_congestion(nl, area, node);
        const ReorderResult rr = reorder_scan(nl, scan);
        const auto cong_after = estimate_congestion(nl, area, node);

        std::printf("%8zu %8d %12.0f %12.0f %8.1f%% %12.0f %12.0f\n", flops, 4,
                    rr.before_um, rr.after_um, 100.0 * rr.improvement(),
                    cong_before.total_demand, cong_after.total_demand);
        all_better &= (rr.after_um < rr.before_um);
        big_savings &= (rr.improvement() > 0.5);
        congestion_drops &= (cong_after.total_demand <= cong_before.total_demand);
    }
    std::printf("\npaper claim: placement-blind (front-end) scan stitching wastes\n"
                "routing resources; implementation-time reordering recovers it.\n\n");
    bool ok = bench::shape_check("reordering always shortens the chains", all_better);
    ok &= bench::shape_check("savings exceed 50% (front-end order is terrible)",
                             big_savings);
    ok &= bench::shape_check("routing demand falls after reorder", congestion_drops);
    return ok ? 0 : 1;
}
