/// E3 (Domic): "more efficient line-search routing algorithms have
/// resulted in much better routers under simpler design rules, making it
/// possible to reduce layers at 28 nm and above. Our semiconductor
/// partners tell us that moving from a 6-layer 130 nm A&M/S process
/// variant to a 4-layer slashes 15-20% from the cost."
///
/// Reproduction: the same placed design is routed with 6 and 4 signal
/// layers (maze and line-search engines). The wafer-cost model prices
/// each metal layer (masks + deposition/CMP passes); the shape to hold:
/// 4 layers remain routable on the A&M/S-class design and cost ~15-20%
/// less, while the line-search engine expands far fewer cells.

#include <cstdio>

#include "bench_common.hpp"
#include "janus/place/analytic_place.hpp"
#include "janus/place/legalize.hpp"
#include "janus/route/global_router.hpp"
#include "janus/route/layer_assign.hpp"
#include "janus/route/line_search.hpp"
#include "janus/route/maze_router.hpp"
#include "janus/util/rng.hpp"

using namespace janus;

namespace {

/// 130 nm wafer cost: fixed front-end cost plus per-metal-layer cost
/// (mask amortization + deposition + CMP). Calibrated to the panel's
/// 15-20% figure for 6 -> 4 layers.
double wafer_cost_usd(int metal_layers) {
    const double front_end = 1100.0;  // FEOL + device layers
    const double per_layer = 150.0;   // mask amortization + dep/litho/CMP
    return front_end + per_layer * metal_layers;
}

}  // namespace

int main() {
    bench::banner("E3 bench_e3_layer_reduction", "Antun Domic (Synopsys)",
                  "6-layer -> 4-layer at 130 nm slashes 15-20% of wafer cost");
    const auto lib = bench::make_lib("130nm");
    const auto node = *find_node("130nm");

    // A&M/S-class digital block: modest size, datapath-like structure.
    Netlist nl = generate_mesh(lib, 2000, 9);
    const PlacementArea area = make_placement_area(nl, node, 0.6);
    analytic_place(nl, area);
    legalize(nl, area);

    // "expanded" counts real search visits only; first-pass pattern L-routes
    // lay cells without searching and are reported separately, so the
    // Lee-vs-line-search comparison is not skewed by the pattern pass.
    std::printf("%-12s %7s %9s %9s %7s %9s %9s %11s %9s\n", "engine", "layers",
                "wirelen", "overflow", "vias", "expanded", "pattern",
                "wafer_usd", "saving");
    double cost6 = 0;
    bool ok4 = true;
    std::size_t maze_expanded = 0, ls_expanded = 0;
    for (const RouteEngine engine : {RouteEngine::Maze, RouteEngine::LineSearch}) {
        for (const int layers : {6, 4}) {
            GlobalRouteOptions opts;
            opts.engine = engine;
            opts.routing_layers = layers;
            const double gcell_nm =
                static_cast<double>(area.die.width()) / opts.gcells_x;
            opts.capacity_per_layer = 0.65 * gcell_nm / node.metal_pitch_nm;
            const auto routes = route_design(nl, area, opts);
            LayerAssignOptions lopts;
            lopts.routing_layers = layers;
            const auto la = assign_layers(routes, opts.gcells_x, opts.gcells_y, lopts);
            const double cost = wafer_cost_usd(layers);
            if (layers == 6) cost6 = cost;
            const double saving = cost6 > 0 ? 100.0 * (1.0 - cost / cost6) : 0.0;
            std::printf("%-12s %7d %9zu %9.0f %7zu %9zu %9zu %11.0f %8.1f%%\n",
                        engine == RouteEngine::Maze ? "maze" : "line-search",
                        layers, routes.total_wirelength, routes.total_overflow,
                        la.via_count, routes.search_cells_expanded,
                        routes.pattern_cells, cost, saving);
            if (layers == 4 &&
                routes.total_overflow >
                    0.001 * static_cast<double>(routes.total_wirelength)) {
                ok4 = false;
            }
        }
    }

    // Algorithmic micro-comparison on identical two-pin probes: the
    // line-search advantage Domic cites (fewer cells touched per route).
    {
        GridGraph grid(48, 48, 8.0);
        Rng prng(3);
        for (int probe = 0; probe < 200; ++probe) {
            const GCell a{static_cast<int>(prng.next_below(48)),
                          static_cast<int>(prng.next_below(48))};
            const GCell b{static_cast<int>(prng.next_below(48)),
                          static_cast<int>(prng.next_below(48))};
            SearchStats sm, sl;
            MazeOptions lee;
            lee.use_astar = false;  // the classic Lee router of the era
            maze_route(grid, a, b, lee, &sm);
            line_search_route(grid, a, b, &sl);
            maze_expanded += sm.cells_expanded;
            ls_expanded += sl.cells_expanded;
        }
        std::printf("two-pin probes: maze expanded %zu cells, line-search %zu\n",
                    maze_expanded, ls_expanded);
    }
    const double saving = 100.0 * (1.0 - wafer_cost_usd(4) / wafer_cost_usd(6));
    std::printf("\n6->4 layer wafer cost saving: %.1f%% (paper: 15-20%%)\n\n", saving);
    bool ok = bench::shape_check("4 layers remain routable (<0.1% overflow)", ok4);
    ok &= bench::shape_check("cost saving in the 13-22% band",
                             saving >= 13.0 && saving <= 22.0);
    ok &= bench::shape_check("line-search touches far fewer cells than maze",
                             ls_expanded * 2 < maze_expanded);
    return ok ? 0 : 1;
}
