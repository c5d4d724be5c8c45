/// Ablation: physical-design engine choices (E5 decomposition).
///
/// (a) placer: CG iteration budget and SimPL spread/anchor rounds vs
///     post-legalization HPWL;
/// (b) router: pattern-route first pass on/off and rip-up iterations vs
///     overflow and runtime.
///
/// Exits 1 when a deterministic SHAPE CHECK fails; the wall-time
/// comparison of the two routing strategies is printed only.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "janus/place/analytic_place.hpp"
#include "janus/place/legalize.hpp"
#include "janus/place/sa_place.hpp"
#include "janus/route/global_router.hpp"

using namespace janus;

int main() {
    bench::banner("ablation bench_ablation_place_route", "JanusEDA",
                  "placer solver budget and router strategy ablations");
    const auto lib = bench::make_lib();
    const auto node = *find_node("28nm");

    // ---- placer ablation.
    std::printf("placer (20k-instance mesh):\n%10s %8s %14s %10s\n", "cg_iters",
                "rounds", "hpwl_um", "time_ms");
    // hpwl[b][s]: post-legalization HPWL at budget kBudgets[b] and
    // spreading_iterations kSpreads[s] (1 and 3 rounds).
    constexpr int kBudgets[] = {50, 300, 800};
    constexpr int kSpreads[] = {0, 12};
    double hpwl[3][2] = {};
    for (int b = 0; b < 3; ++b) {
        for (int s = 0; s < 2; ++s) {
            Netlist nl = generate_mesh(lib, 20000, 15);
            const PlacementArea area = make_placement_area(nl, node, 0.65);
            AnalyticPlaceOptions opts;
            opts.solver_iterations = kBudgets[b];
            opts.spreading_iterations = kSpreads[s];
            const auto t0 = std::chrono::steady_clock::now();
            analytic_place(nl, area, opts);
            legalize(nl, area);
            const double ms = bench::ms_since(t0);
            hpwl[b][s] = total_hpwl_um(nl, area);
            std::printf("%10d %8d %14.0f %10.0f\n", kBudgets[b],
                        std::max(1, kSpreads[s] / 4), hpwl[b][s], ms);
        }
    }

    // ---- SA refinement on top.
    bool ok = true;
    {
        Netlist nl = generate_mesh(lib, 8000, 15);
        const PlacementArea area = make_placement_area(nl, node, 0.65);
        analytic_place(nl, area);
        legalize(nl, area);
        SaPlaceOptions sopts;
        sopts.moves_per_cell = 25;
        const auto sa = sa_refine(nl, area, sopts);
        std::printf("\nSA refinement (8k mesh): %.0f -> %.0f um (%.1f%%)\n",
                    sa.initial_hpwl_um, sa.final_hpwl_um,
                    100.0 * sa.improvement());
        ok &= bench::shape_check("SA detailed placement further improves HPWL",
                                 sa.final_hpwl_um <= sa.initial_hpwl_um);
    }

    // ---- router ablation.
    std::printf("\nrouter (20k-instance mesh):\n%14s %10s %12s %10s %10s\n",
                "first_pass", "rrr_iters", "wirelength", "overflow", "time_ms");
    Netlist nl = generate_mesh(lib, 20000, 15);
    const PlacementArea area = make_placement_area(nl, node, 0.65);
    analytic_place(nl, area);
    legalize(nl, area);
    double t_pattern = 0, t_search = 0;
    for (const RouteEngine engine : {RouteEngine::Maze, RouteEngine::LineSearch}) {
        for (const int iters : {0, 8}) {
            GlobalRouteOptions opts;
            opts.engine = engine;
            opts.max_iterations = iters;
            opts.gcells_x = opts.gcells_y =
                std::max(24, static_cast<int>(area.die.width() / 3000));
            opts.capacity_per_layer =
                0.65 * (static_cast<double>(area.die.width()) / opts.gcells_x) /
                node.metal_pitch_nm;
            const auto t0 = std::chrono::steady_clock::now();
            const auto r = route_design(nl, area, opts);
            const double ms = bench::ms_since(t0);
            std::printf("%14s %10d %12zu %10.0f %10.0f\n",
                        engine == RouteEngine::Maze ? "pattern+maze" : "line-search",
                        iters, r.total_wirelength, r.total_overflow, ms);
            if (engine == RouteEngine::Maze && iters == 8) t_pattern = ms;
            if (engine == RouteEngine::LineSearch && iters == 8) t_search = ms;
        }
    }

    ok &= bench::shape_check("spreading rounds improve HPWL at the default budget",
                             hpwl[1][1] < hpwl[1][0]);
    // The coarse-to-fine solve converges long range on a small coarsest
    // level, so the budget no longer buys wirelength.
    ok &= bench::shape_check("a 50-iteration budget places within 2% of 800",
                             hpwl[0][1] <= 1.02 * hpwl[2][1]);
    // Wall times depend on load, so this verdict is printed only.
    bench::shape_check("pattern-first maze is the faster full-route strategy",
                       t_pattern <= t_search * 1.5);
    return ok ? 0 : 1;
}
