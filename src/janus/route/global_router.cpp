#include "janus/route/global_router.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>
#include <utility>

#include "janus/route/line_search.hpp"
#include "janus/route/maze_router.hpp"
#include "janus/util/speculate.hpp"
#include "janus/util/thread_pool.hpp"

namespace janus {
namespace {

constexpr std::size_t kNetsPerPanel = 8;  ///< auto panel-grid sizing target
constexpr int kMaxPanelsPerAxis = 8;
/// Round-size cap and conflict-feedback threshold for the auto panel grid.
/// An aborting net drags the rest of its panel chain to the next round (the
/// chain routed on top of its replacement), so thousand-net chains waste
/// almost a whole round on one early conflict: rounds admit at most this
/// many pending nets (the rest defer, unspeculated), and rounds at the cap
/// additionally shrink the panel grid when the previous round's conflict
/// rate ran high. Small pinned-baseline scenario designs never reach this
/// count and keep their exact schedules.
constexpr std::size_t kPanelFeedbackMinNets = 1024;

/// Epoch-stamped gcell claims that remember which panel wrote each stamp,
/// so a panel's own chained commits are never mistaken for conflicts.
struct OwnerStamps {
    std::vector<std::uint32_t> epoch_of;
    std::vector<std::uint32_t> owner_of;
    std::uint32_t epoch = 0;

    void resize(std::size_t n) {
        epoch_of.assign(n, 0);
        owner_of.assign(n, 0);
    }
    void next_epoch() {
        if (++epoch == 0) {
            epoch_of.assign(epoch_of.size(), 0);
            epoch = 1;
        }
    }
    bool claimed_by_other(std::size_t i, std::uint32_t owner) const {
        return epoch_of[i] == epoch && owner_of[i] != owner;
    }
    void claim(std::size_t i, std::uint32_t owner) {
        epoch_of[i] = epoch;
        owner_of[i] = owner;
    }
};

/// One speculative reroute awaiting its round's serial commit.
struct RerouteCandidate {
    std::size_t idx = 0;  ///< index into res.nets / net_pins
    RoutedNet rn;         ///< the optimistically computed replacement
    GCellRect window;     ///< everything its search may have read
};

/// Undirected gcell-edge key for per-net deduplication.
std::uint64_t edge_key(const GCell& a, const GCell& b, int grid_w) {
    const auto id = [&](const GCell& c) {
        return static_cast<std::uint64_t>(c.y) * static_cast<std::uint64_t>(grid_w) +
               static_cast<std::uint64_t>(c.x);
    };
    std::uint64_t x = id(a), y = id(b);
    if (x > y) std::swap(x, y);
    return (x << 32) | y;
}

/// Unique edges of a net's segments as cell pairs.
std::vector<std::pair<GCell, GCell>> net_edges(const RoutedNet& rn, int grid_w) {
    std::set<std::uint64_t> seen;
    std::vector<std::pair<GCell, GCell>> edges;
    for (const GridRoute& s : rn.segments) {
        for (std::size_t i = 1; i < s.cells.size(); ++i) {
            if (seen.insert(edge_key(s.cells[i - 1], s.cells[i], grid_w)).second) {
                edges.emplace_back(s.cells[i - 1], s.cells[i]);
            }
        }
    }
    return edges;
}

void commit_net(GridGraph& grid, const RoutedNet& rn, int grid_w, double sign) {
    for (const auto& [a, b] : net_edges(rn, grid_w)) {
        GridRoute e;
        e.cells = {a, b};
        if (sign > 0) {
            grid.add_route(e);
        } else {
            grid.remove_route(e);
        }
    }
}

/// L-shaped pattern route between two cells, picking the cheaper corner
/// under current congestion. O(path length) — the fast first-pass router.
GridRoute l_route(const GridGraph& grid, GCell from, GCell to) {
    const auto build = [&](bool x_first) {
        GridRoute r;
        GCell c = from;
        r.cells.push_back(c);
        const auto step_x = [&] {
            while (c.x != to.x) {
                c.x += (to.x > c.x) ? 1 : -1;
                r.cells.push_back(c);
            }
        };
        const auto step_y = [&] {
            while (c.y != to.y) {
                c.y += (to.y > c.y) ? 1 : -1;
                r.cells.push_back(c);
            }
        };
        if (x_first) {
            step_x();
            step_y();
        } else {
            step_y();
            step_x();
        }
        return r;
    };
    const auto cost = [&](const GridRoute& r) {
        double c = 0;
        for (std::size_t i = 1; i < r.cells.size(); ++i) {
            c += grid.edge_cost(r.cells[i - 1], r.cells[i], 8.0);
        }
        return c;
    };
    GridRoute a = build(true);
    const GridRoute b = build(false);
    return cost(a) <= cost(b) ? a : b;
}

}  // namespace

RoutedNet route_net_tree(const GridGraph& grid, NetId net,
                         const std::vector<GCell>& pins, RouteEngine engine,
                         bool pattern_first, SearchStats* stats,
                         double congestion_penalty) {
    RoutedNet rn;
    rn.net = net;
    if (pins.empty()) return rn;
    std::vector<GCell> tree{pins.front()};
    // Route cells revisit tree cells constantly (every path starts on one),
    // so the tree is grown through a visited set: duplicates would inflate
    // memory and degrade the nearest-cell scan to O(total route cells).
    std::unordered_set<std::uint64_t> in_tree;
    const auto cell_key = [](const GCell& c) {
        return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.x))
                << 32) |
               static_cast<std::uint32_t>(c.y);
    };
    in_tree.insert(cell_key(pins.front()));
    for (std::size_t p = 1; p < pins.size(); ++p) {
        std::optional<GridRoute> path;
        // Nearest tree cell (used by both pattern and line-search modes).
        const GCell* nearest = &tree.front();
        int best = 1 << 30;
        for (const GCell& t : tree) {
            const int d = std::abs(t.x - pins[p].x) + std::abs(t.y - pins[p].y);
            if (d < best) {
                best = d;
                nearest = &t;
            }
        }
        if (pattern_first) {
            path = l_route(grid, *nearest, pins[p]);
            if (stats) stats->pattern_cells += path->cells.size();
        } else if (engine == RouteEngine::LineSearch) {
            path = line_search_route(grid, *nearest, pins[p], stats);
        }
        if (!path) {
            MazeOptions mo;
            mo.congestion_penalty = congestion_penalty;
            path = maze_route_from_tree(grid, tree, pins[p], mo, stats);
        }
        for (const GCell& c : path->cells) {
            if (in_tree.insert(cell_key(c)).second) tree.push_back(c);
        }
        rn.segments.push_back(std::move(*path));
    }
    if (stats) stats->tree_cells += tree.size();
    return rn;
}

GCell gcell_of(const Point& p, const Rect& die, int gx, int gy) {
    const auto clamp_to = [](std::int64_t v, int n) {
        return std::clamp<std::int64_t>(v, 0, n - 1);
    };
    const std::int64_t w = std::max<std::int64_t>(1, die.width());
    const std::int64_t h = std::max<std::int64_t>(1, die.height());
    return GCell{
        static_cast<int>(clamp_to((p.x - die.lo.x) * gx / w, gx)),
        static_cast<int>(clamp_to((p.y - die.lo.y) * gy / h, gy))};
}

GlobalRouteResult route_design(const Netlist& nl, const PlacementArea& area,
                               const GlobalRouteOptions& opts) {
    GlobalRouteResult res;
    const double capacity =
        opts.capacity_per_layer * (static_cast<double>(opts.routing_layers) / 2.0);
    GridGraph grid(opts.gcells_x, opts.gcells_y, capacity);

    // Gather per-net pin gcells; pins are sorted by distance to the first
    // pin so the tree grows outward.
    std::vector<std::vector<GCell>> net_pins;
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        std::vector<GCell> pins;
        const Net& net = nl.net(n);
        if (net.driver_kind == DriverKind::Instance &&
            nl.instance(net.driver_inst).placed) {
            pins.push_back(gcell_of(nl.instance(net.driver_inst).position, area.die,
                                    opts.gcells_x, opts.gcells_y));
        }
        for (const SinkRef& s : nl.sinks(n)) {
            if (nl.instance(s.inst()).placed) {
                pins.push_back(gcell_of(nl.instance(s.inst()).position, area.die,
                                        opts.gcells_x, opts.gcells_y));
            }
        }
        std::sort(pins.begin(), pins.end(), [](const GCell& a, const GCell& b) {
            return a.x < b.x || (a.x == b.x && a.y < b.y);
        });
        pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
        if (pins.size() < 2) continue;
        RoutedNet rn;
        rn.net = n;
        res.nets.push_back(std::move(rn));
        net_pins.push_back(std::move(pins));
    }

    // Net order: small bounding boxes first; the net id breaks ties so the
    // order (and everything routed in it) is reproducible across standard
    // libraries — a bare bbox key left equal-size nets in
    // implementation-defined order.
    std::vector<std::size_t> order(res.nets.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::vector<int> bbox_size(res.nets.size());
    for (std::size_t i = 0; i < res.nets.size(); ++i) {
        GCellRect r;
        for (const GCell& p : net_pins[i]) r.include(p);
        bbox_size[i] = r.span_x() + r.span_y();
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         if (bbox_size[a] != bbox_size[b]) {
                             return bbox_size[a] < bbox_size[b];
                         }
                         return res.nets[a].net < res.nets[b].net;
                     });

    SearchStats stats;
    // First pass: cheap pattern routing for the maze engine (full search
    // would spend die-sized Dijkstras on nets that route trivially); the
    // line-search engine demonstrates its own probes everywhere.
    const bool pattern_first = opts.engine == RouteEngine::Maze;
    for (const std::size_t i : order) {
        res.nets[i] = route_net_tree(grid, res.nets[i].net, net_pins[i],
                                     opts.engine, pattern_first, &stats);
        commit_net(grid, res.nets[i], opts.gcells_x, +1);
    }

    // Region a rerouted net may touch: everything it will rip up plus the
    // maze search window around its pins. Nets whose regions are disjoint
    // cannot read or write each other's edges (up to the rare unwindowed
    // fallback), so they reroute like consecutive serial nets.
    const auto net_region = [&](std::size_t i) {
        GCellRect r;
        for (const GCell& p : net_pins[i]) r.include(p);
        const int margin = maze_window_margin(r.span_x(), r.span_y());
        for (const GridRoute& s : res.nets[i].segments) {
            for (const GCell& c : s.cells) r.include(c);
        }
        return r.expanded(margin).clipped(opts.gcells_x, opts.gcells_y);
    };

    // Negotiated rip-up-and-reroute on the speculative region-ownership
    // engine (util/speculate.hpp). Each round, the pending congested nets
    // are binned into gcell panels; every panel reroutes its nets as one
    // chain on a private copy of the round-frozen grid (rip own route,
    // route, keep the replacement visible to the chain's later nets), and
    // the chains commit serially in panel/net order. A net whose read
    // window contains a cell an earlier panel changed this round aborts —
    // its costs were computed from a snapshot that commit invalidated —
    // and re-queues, together with the rest of its chain (which routed on
    // top of it). The panel grid, chain order and commit order are pure
    // functions of the pending set and round, never of worker scheduling,
    // so the result is byte-identical for any worker count.
    const std::size_t cells = static_cast<std::size_t>(opts.gcells_x) *
                              static_cast<std::size_t>(opts.gcells_y);
    WorkerTeam team(opts.route_workers);
    std::vector<GridGraph> slot_grids(team.slots(),
                                      GridGraph(opts.gcells_x, opts.gcells_y,
                                                capacity));
    OwnerStamps stamps;
    stamps.resize(cells);
    const auto cell_index = [&](const GCell& c) {
        return static_cast<std::size_t>(c.y) * opts.gcells_x +
               static_cast<std::size_t>(c.x);
    };

    // Conflict feedback for the auto-sized panel grid: when a round aborts
    // most of its speculation (windows overlapping foreign commits), halve
    // the panels per axis for subsequent rounds so chains get larger and
    // cross-panel windows rarer; relax back when commits flow again. The
    // shrink level is a pure function of the (deterministic) round history
    // — commit/abort outcomes never depend on worker scheduling — so the
    // byte-identity contract survives.
    int conflict_shrink = 0;
    std::size_t fb_speculated = 0;
    std::size_t fb_conflicts = 0;

    int iter = 0;
    for (; iter < opts.max_iterations && grid.total_overflow() > 0; ++iter) {
        grid.accumulate_history();
        // Congested nets in net order, against the iteration-start state.
        std::vector<std::size_t> pending;
        for (const std::size_t i : order) {
            for (const auto& [a, b] : net_edges(res.nets[i], opts.gcells_x)) {
                if (!grid.edge_free(a, b)) {
                    pending.push_back(i);
                    break;
                }
            }
        }
        if (pending.empty()) break;

        // Negotiation: full edges repel harder every iteration.
        const double penalty = 8.0 * (1.0 + iter);

        while (!pending.empty()) {
            // Alternating half-panel-shifted grids so nets straddling one
            // round's seam can land in a single panel the next round.
            const bool shifted = (res.reroute_rounds % 2) == 1;
            ++res.reroute_rounds;

            // Admit at most kPanelFeedbackMinNets nets (in pending order —
            // a pure prefix, so the schedule stays worker-independent);
            // the rest defer to later rounds behind this round's aborts.
            std::vector<std::size_t> deferred;
            if (pending.size() > kPanelFeedbackMinNets) {
                deferred.assign(pending.begin() + kPanelFeedbackMinNets,
                                pending.end());
                pending.resize(kPanelFeedbackMinNets);
            }

            int tiles = RegionGrid::auto_tiles_per_axis(
                pending.size(), kNetsPerPanel, kMaxPanelsPerAxis);
            if (pending.size() >= kPanelFeedbackMinNets) {
                tiles = std::max(1, tiles >> conflict_shrink);
            }
            const RegionGrid panel_grid(0, 0, opts.gcells_x, opts.gcells_y,
                                        tiles, tiles);
            const std::size_t panels =
                static_cast<std::size_t>(panel_grid.num_regions());
            res.panels = std::max(res.panels, panels);

            // Serial prologue: bin pending nets by pin-bbox center, in
            // pending order (= chain and commit order within a panel).
            std::vector<std::vector<std::size_t>> panel_nets(panels);
            for (const std::size_t i : pending) {
                GCellRect r;
                for (const GCell& p : net_pins[i]) r.include(p);
                panel_nets[static_cast<std::size_t>(panel_grid.region_of(
                               (r.x0 + r.x1) / 2, (r.y0 + r.y1) / 2,
                               shifted))]
                    .push_back(i);
            }

            // Speculation: each panel replays rip-up-and-reroute for its
            // chain on a private grid synced to the round-frozen snapshot.
            // The slot id picks only which private grid is reused; every
            // candidate is a pure function of (snapshot, panel, chain).
            std::vector<std::vector<RerouteCandidate>> out(panels);
            std::vector<SearchStats> panel_stats(panels);
            team.for_each(panels, [&](std::size_t p, std::size_t slot) {
                if (panel_nets[p].empty()) return;
                GridGraph& g = slot_grids[slot];
                g = grid;  // concurrent reads of the frozen grid are safe
                for (const std::size_t i : panel_nets[p]) {
                    RerouteCandidate c;
                    c.idx = i;
                    c.window = net_region(i);
                    commit_net(g, res.nets[i], opts.gcells_x, -1);
                    c.rn = route_net_tree(g, res.nets[i].net, net_pins[i],
                                          opts.engine, false, &panel_stats[p],
                                          penalty);
                    // Keep the replacement in the private grid: later chain
                    // members negotiate against it like consecutive serial
                    // nets would.
                    commit_net(g, c.rn, opts.gcells_x, +1);
                    out[p].push_back(std::move(c));
                }
            });

            // Serial commit in panel/net order. Stamps mark the cells whose
            // usage this round's commits changed, tagged with the owning
            // panel: a candidate only aborts on *other* panels' changes —
            // its own chain's are exactly what it negotiated against. Once
            // a chain member aborts, the rest of the chain follows it to
            // the next round (they routed on top of its replacement).
            stamps.next_epoch();
            pending.clear();
            for (std::size_t p = 0; p < panels; ++p) {
                stats += panel_stats[p];
                const auto owner = static_cast<std::uint32_t>(p);
                bool chain_broken = false;
                for (RerouteCandidate& c : out[p]) {
                    ++res.speculated_nets;
                    bool conflict = chain_broken;
                    for (int y = c.window.y0; y <= c.window.y1 && !conflict;
                         ++y) {
                        for (int x = c.window.x0; x <= c.window.x1; ++x) {
                            if (stamps.claimed_by_other(
                                    cell_index(GCell{x, y}), owner)) {
                                conflict = true;
                                break;
                            }
                        }
                    }
                    if (conflict) {
                        ++res.reroute_conflicts;
                        pending.push_back(c.idx);
                        chain_broken = true;
                        continue;
                    }
                    const auto stamp_route = [&](const RoutedNet& rn) {
                        for (const GridRoute& s : rn.segments) {
                            for (const GCell& cc : s.cells) {
                                stamps.claim(cell_index(cc), owner);
                            }
                        }
                    };
                    commit_net(grid, res.nets[c.idx], opts.gcells_x, -1);
                    stamp_route(res.nets[c.idx]);
                    res.nets[c.idx] = std::move(c.rn);
                    commit_net(grid, res.nets[c.idx], opts.gcells_x, +1);
                    stamp_route(res.nets[c.idx]);
                    ++res.committed_nets;
                }
            }
            // Progress is guaranteed: the first candidate of the first
            // non-empty panel sees no foreign stamps and always commits.
            pending.insert(pending.end(), deferred.begin(), deferred.end());

            // Update the conflict feedback from this round's outcome.
            const std::size_t round_spec = res.speculated_nets - fb_speculated;
            const std::size_t round_conf = res.reroute_conflicts - fb_conflicts;
            fb_speculated = res.speculated_nets;
            fb_conflicts = res.reroute_conflicts;
            if (round_spec > 0) {
                const double rate = static_cast<double>(round_conf) /
                                    static_cast<double>(round_spec);
                if (rate > 0.4 && conflict_shrink < 3) {
                    ++conflict_shrink;
                } else if (rate < 0.15 && conflict_shrink > 0) {
                    --conflict_shrink;
                }
            }
        }
    }

    res.iterations = iter;
    res.total_overflow = grid.total_overflow();
    res.overflowed_edges = grid.overflowed_edges();
    res.search_cells_expanded = stats.cells_expanded;
    res.pattern_cells = stats.pattern_cells;
    for (const RoutedNet& rn : res.nets) {
        res.total_wirelength += net_edges(rn, opts.gcells_x).size();
    }
    return res;
}

}  // namespace janus
