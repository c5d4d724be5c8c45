#include "janus/route/layer_assign.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace janus {
namespace {

/// A maximal straight run of a route.
struct Run {
    bool horizontal = false;
    std::size_t edges = 0;
    std::size_t start_edge = 0;  // global edge ids not tracked; per-run only
};

std::vector<Run> split_runs(const GridRoute& r) {
    std::vector<Run> runs;
    for (std::size_t i = 1; i < r.cells.size(); ++i) {
        const bool horiz = r.cells[i].y == r.cells[i - 1].y;
        if (runs.empty() || runs.back().horizontal != horiz) {
            runs.push_back(Run{horiz, 0, i - 1});
        }
        ++runs.back().edges;
    }
    return runs;
}

}  // namespace

LayerAssignResult assign_layers(const GlobalRouteResult& routes, int grid_w,
                                int grid_h, const LayerAssignOptions& opts) {
    constexpr double kCapacityPerLayer = 4.0;  // edge units per (edge, layer)
    LayerAssignResult res;
    res.layers_used = opts.routing_layers;
    res.layer_usage.assign(static_cast<std::size_t>(opts.routing_layers), 0.0);

    // Per-layer, per-edge usage. Horizontal edges indexed (w-1)*h, vertical
    // w*(h-1); one array per layer of the matching direction.
    const std::size_t h_edges = static_cast<std::size_t>(grid_w - 1) * grid_h;
    const std::size_t v_edges = static_cast<std::size_t>(grid_w) * (grid_h - 1);
    std::vector<std::vector<double>> usage(
        static_cast<std::size_t>(opts.routing_layers));
    for (int l = 0; l < opts.routing_layers; ++l) {
        usage[static_cast<std::size_t>(l)].assign(l % 2 == 0 ? h_edges : v_edges, 0.0);
    }
    const auto h_index = [&](const GCell& a, const GCell& b) {
        return static_cast<std::size_t>(a.y) * (grid_w - 1) + std::min(a.x, b.x);
    };
    const auto v_index = [&](const GCell& a, const GCell& b) {
        return static_cast<std::size_t>(std::min(a.y, b.y)) * grid_w + a.x;
    };

    for (const RoutedNet& rn : routes.nets) {
        for (const GridRoute& seg : rn.segments) {
            const auto runs = split_runs(seg);
            int prev_layer = -1;
            for (const Run& run : runs) {
                // Candidate layers of the right direction; choose the one
                // with the least usage on this run's first edge.
                int best_layer = -1;
                double best_use = 1e300;
                for (int l = run.horizontal ? 0 : 1; l < opts.routing_layers; l += 2) {
                    // Usage sampled at the run's first edge.
                    const std::size_t e0 =
                        run.horizontal
                            ? h_index(seg.cells[run.start_edge], seg.cells[run.start_edge + 1])
                            : v_index(seg.cells[run.start_edge], seg.cells[run.start_edge + 1]);
                    const double u = usage[static_cast<std::size_t>(l)][e0];
                    // Prefer lower layers slightly (cheaper vias to pins).
                    const double score = u + 0.01 * l;
                    if (score < best_use) {
                        best_use = score;
                        best_layer = l;
                    }
                }
                if (best_layer < 0) {
                    // No layer of this direction exists (e.g. 1-layer stack):
                    // force layer 0 and count overflow there.
                    best_layer = 0;
                }
                // Commit usage along the run.
                for (std::size_t e = 0; e < run.edges; ++e) {
                    const std::size_t i = run.start_edge + e;
                    const std::size_t ei =
                        run.horizontal ? h_index(seg.cells[i], seg.cells[i + 1])
                                       : v_index(seg.cells[i], seg.cells[i + 1]);
                    auto& u = usage[static_cast<std::size_t>(best_layer)];
                    if (ei < u.size()) u[ei] += 1.0;
                }
                res.layer_usage[static_cast<std::size_t>(best_layer)] +=
                    static_cast<double>(run.edges);
                res.total_wirelength += run.edges;
                if (prev_layer >= 0 && prev_layer != best_layer) {
                    res.via_count += static_cast<std::size_t>(
                        std::abs(best_layer - prev_layer));
                }
                prev_layer = best_layer;
            }
            // Pin access vias: route endpoints connect down to the cells.
            if (!runs.empty()) res.via_count += 2;
        }
    }

    for (const auto& layer : usage) {
        for (const double u : layer) {
            res.layer_overflow += std::max(0.0, u - kCapacityPerLayer);
        }
    }
    return res;
}

}  // namespace janus
