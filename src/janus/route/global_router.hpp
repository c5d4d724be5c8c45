#pragma once
/// \file global_router.hpp
/// Full-design global routing: multi-pin nets are decomposed into two-pin
/// segments (star topology on the pin closest to the centroid), routed
/// with the selected engine, and overflow is resolved by negotiated
/// rip-up-and-reroute.

#include <cstdint>
#include <vector>

#include "janus/place/analytic_place.hpp"
#include "janus/route/grid_graph.hpp"
#include "janus/route/maze_router.hpp"

namespace janus {

enum class RouteEngine { Maze, LineSearch };

struct GlobalRouteOptions {
    int gcells_x = 32;
    int gcells_y = 32;
    /// Tracks per gcell edge; derived from layer count in route_design.
    double capacity_per_layer = 4.0;
    int routing_layers = 6;
    RouteEngine engine = RouteEngine::Maze;
    int max_iterations = 12;  ///< rip-up-and-reroute rounds
    /// Worker slots for the negotiation loop's speculative panel reroutes
    /// (util/speculate.hpp). The result is byte-identical for every value
    /// (panels are speculated against a round-frozen grid and committed
    /// serially in panel/net order — see docs/ROUTING.md); 1 keeps the loop
    /// fully serial.
    int route_workers = 1;
};

struct RoutedNet {
    NetId net = 0;
    std::vector<GridRoute> segments;  ///< one per two-pin connection
    std::size_t wirelength() const {
        std::size_t w = 0;
        for (const GridRoute& s : segments) w += s.length();
        return w;
    }
};

struct GlobalRouteResult {
    std::vector<RoutedNet> nets;
    std::size_t total_wirelength = 0;  ///< gcell edge units
    double total_overflow = 0;
    std::size_t overflowed_edges = 0;
    int iterations = 0;
    /// Cells visited by real search (maze / line probes). First-pass pattern
    /// L-routes lay cells without searching; those land in pattern_cells so
    /// engine comparisons (E3) are not skewed by the pattern pass.
    std::size_t search_cells_expanded = 0;
    std::size_t pattern_cells = 0;
    /// Negotiation observability. One round = one speculate/commit cycle of
    /// the region-ownership engine: every pending congested net is rerouted
    /// optimistically against the round-frozen grid, then committed serially
    /// in panel/net order. `reroute_conflicts` counts commit aborts — nets
    /// whose read window an earlier panel's commit invalidated, re-queued to
    /// the next round — so speculated == committed + conflicts.
    std::size_t reroute_rounds = 0;
    std::size_t reroute_conflicts = 0;
    std::size_t speculated_nets = 0;
    std::size_t committed_nets = 0;
    std::size_t panels = 0;  ///< largest ownership grid used by any round
    /// Fraction of speculative reroutes that survived commit (1.0 when
    /// nothing ever conflicted): the health metric of the speculation.
    double commit_rate() const {
        return speculated_nets == 0
                   ? 1.0
                   : static_cast<double>(committed_nets) /
                         static_cast<double>(speculated_nets);
    }
    /// Reroutes per round — the batching-efficiency number that collapsed
    /// toward ~1 under the per-level batching this engine replaced
    /// (regression-tested against a floor).
    double nets_per_round() const {
        return reroute_rounds == 0
                   ? 0.0
                   : static_cast<double>(speculated_nets) /
                         static_cast<double>(reroute_rounds);
    }
    bool success() const { return total_overflow == 0; }
};

/// Routes every multi-pin net of a placed netlist on a fresh grid.
GlobalRouteResult route_design(const Netlist& nl, const PlacementArea& area,
                               const GlobalRouteOptions& opts = {});

/// Routes one multi-pin net as a tree over an existing grid: pins join one
/// at a time via the cheapest path from the already-routed tree. Does not
/// commit usage. `pattern_first` selects the O(length) L-route first pass;
/// rip-up-and-reroute calls back with full search and a scaled penalty.
/// Reads the grid only, so concurrent calls on one grid are safe.
RoutedNet route_net_tree(const GridGraph& grid, NetId net,
                         const std::vector<GCell>& pins, RouteEngine engine,
                         bool pattern_first, SearchStats* stats = nullptr,
                         double congestion_penalty = 8.0);

/// Maps a placement position to its gcell.
GCell gcell_of(const Point& p, const Rect& die, int gx, int gy);

}  // namespace janus
