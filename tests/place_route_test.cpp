#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "janus/netlist/generator.hpp"
#include "janus/netlist/io.hpp"
#include "janus/place/analytic_place.hpp"
#include "janus/place/congestion.hpp"
#include "janus/place/legalize.hpp"
#include "janus/place/sa_place.hpp"
#include "janus/route/global_router.hpp"
#include "janus/route/layer_assign.hpp"
#include "janus/route/line_search.hpp"
#include "janus/route/maze_router.hpp"
#include "janus/route/multipattern.hpp"
#include "janus/util/name_table.hpp"

namespace janus {
namespace {

std::shared_ptr<const CellLibrary> lib28() {
    static const auto lib = std::make_shared<const CellLibrary>(
        make_default_library(*find_node("28nm")));
    return lib;
}

Netlist placed_design(std::uint64_t seed, std::size_t gates, PlacementArea* area_out) {
    GeneratorConfig cfg;
    cfg.num_gates = gates;
    cfg.seed = seed;
    Netlist nl = generate_random(lib28(), cfg);
    const PlacementArea area = make_placement_area(nl, *find_node("28nm"));
    analytic_place(nl, area);
    legalize(nl, area);
    if (area_out) *area_out = area;
    return nl;
}

// --------------------------------------------------------------- placement

TEST(Place, AnalyticPlacesAllInstances) {
    PlacementArea area;
    const Netlist nl = placed_design(1, 400, &area);
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        EXPECT_TRUE(nl.instance(i).placed);
        EXPECT_TRUE(area.die.contains(nl.instance(i).position)) << i;
    }
}

TEST(Place, AnalyticBeatsRandomHpwl) {
    GeneratorConfig cfg;
    cfg.num_gates = 500;
    cfg.seed = 7;
    Netlist nl = generate_random(lib28(), cfg);
    const PlacementArea area = make_placement_area(nl, *find_node("28nm"));
    // Random baseline.
    Rng rng(9);
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        nl.instance(i).position = {rng.next_in(area.die.lo.x, area.die.hi.x),
                                   rng.next_in(area.die.lo.y, area.die.hi.y)};
        nl.instance(i).placed = true;
    }
    const double random_hpwl = total_hpwl_um(nl, area);
    const auto q = analytic_place(nl, area);
    EXPECT_LT(q.hpwl_um, 0.7 * random_hpwl);
}

TEST(Place, MultilevelSolveOnFlatMeshShape) {
    // The flat_mesh workload's design shape at the flow's 250-iteration cap.
    Netlist nl = generate_mesh(lib28(), 45000, 1, 4);
    Netlist again = nl;
    const PlacementArea area = make_placement_area(nl, *find_node("28nm"), 0.65);
    AnalyticPlaceOptions opts;
    opts.solver_iterations = 250;
    const PlaceQuality q = analytic_place(nl, area, opts);
    EXPECT_GE(q.levels, 2);
    // A single-level solve ran about 2 x (250 + 63) fine iterations here.
    EXPECT_LE(q.fine_iterations, 250);

    analytic_place(again, area, opts);
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        ASSERT_EQ(nl.instance(i).position, again.instance(i).position) << i;
    }

    legalize(nl, area);
    // Post-legalize HPWL of the single-level solve (250 iterations at full
    // size) on this design.
    constexpr double kSingleLevelHpwlUm = 364561.455;
    EXPECT_LE(total_hpwl_um(nl, area), 0.9 * kSingleLevelHpwlUm);
}

TEST(Place, SmallSystemKeepsSingleLevelPlacement) {
    // About 800 variables: below the coarsest-level size, so the system
    // never coarsens and the placement is the single-level solve's, pinned
    // by the FNV-1a-64 of its placement text.
    Netlist nl = generate_mesh(lib28(), 400, 5);
    const PlacementArea area = make_placement_area(nl, *find_node("28nm"));
    const PlaceQuality q = analytic_place(nl, area);
    EXPECT_EQ(q.levels, 1);
    std::ostringstream placement;
    write_placement(placement, nl);
    EXPECT_EQ(hash_name(placement.str()), 0x5af76ad80e44818dull);
}

TEST(Place, LegalizeProducesLegalPlacement) {
    PlacementArea area;
    Netlist nl = placed_design(2, 600, &area);
    EXPECT_TRUE(is_legal(nl, area));
}

TEST(Place, LegalizeKeepsDisplacementBounded) {
    GeneratorConfig cfg;
    cfg.num_gates = 300;
    Netlist nl = generate_random(lib28(), cfg);
    const PlacementArea area = make_placement_area(nl, *find_node("28nm"), 0.5);
    analytic_place(nl, area);
    const auto res = legalize(nl, area);
    EXPECT_TRUE(res.success);
    EXPECT_GT(res.total_displacement_um, 0.0);
    // Max displacement below the die diagonal (sanity).
    const double diag_um =
        static_cast<double>(area.die.width() + area.die.height()) * 1e-3;
    EXPECT_LT(res.max_displacement_um, diag_um);
}

TEST(Place, SaRefineImprovesHpwlAndStaysLegal) {
    PlacementArea area;
    Netlist nl = placed_design(3, 400, &area);
    SaPlaceOptions opts;
    opts.moves_per_cell = 30;
    const auto res = sa_refine(nl, area, opts);
    EXPECT_LE(res.final_hpwl_um, res.initial_hpwl_um);
    EXPECT_GT(res.accepted_moves, 0u);
    EXPECT_TRUE(is_legal(nl, area));
    // Recomputed HPWL matches the incrementally tracked value.
    EXPECT_NEAR(total_hpwl_um(nl, area), res.final_hpwl_um,
                0.01 * res.final_hpwl_um + 1.0);
}

// -------------------------------------------------------------- congestion

TEST(Congestion, DenserDesignMoreCongested) {
    PlacementArea a1, a2;
    const Netlist small = placed_design(4, 200, &a1);
    const Netlist big = placed_design(4, 1500, &a2);
    const auto c1 = estimate_congestion(small, a1, *find_node("28nm"));
    const auto c2 = estimate_congestion(big, a2, *find_node("28nm"));
    EXPECT_GT(c2.total_demand, c1.total_demand);
}

TEST(Congestion, FewerLayersMoreOverflow) {
    PlacementArea area;
    const Netlist nl = placed_design(5, 1200, &area);
    CongestionOptions o6;
    o6.routing_layers = 6;
    CongestionOptions o2;
    o2.routing_layers = 2;
    const auto c6 = estimate_congestion(nl, area, *find_node("28nm"), o6);
    const auto c2 = estimate_congestion(nl, area, *find_node("28nm"), o2);
    EXPECT_GE(c2.overflow_fraction, c6.overflow_fraction);
}

// ------------------------------------------------------------------ router

TEST(MazeRouter, FindsShortestPathOnEmptyGrid) {
    GridGraph grid(16, 16, 4.0);
    const auto r = maze_route(grid, {2, 3}, {10, 7});
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->length(), 8u + 4u);  // Manhattan distance
    EXPECT_EQ(r->cells.front(), (GCell{2, 3}));
    EXPECT_EQ(r->cells.back(), (GCell{10, 7}));
}

TEST(MazeRouter, AvoidsCongestedRegion) {
    GridGraph grid(16, 16, 1.0);
    // Saturate a vertical wall at x=8 except the top row.
    for (int y = 0; y < 15; ++y) {
        GridRoute block;
        block.cells = {{8, y}, {9, y}};
        grid.add_route(block);
    }
    MazeOptions opts;
    opts.hard_blockages = true;
    const auto r = maze_route(grid, {2, 2}, {14, 2}, opts);
    ASSERT_TRUE(r.has_value());
    // Must detour via the top row.
    bool used_top = false;
    for (const GCell& c : r->cells) used_top |= (c.y == 15);
    EXPECT_TRUE(used_top);
}

TEST(MazeRouter, WindowFallbackFindsDetourOutsideWindow) {
    GridGraph grid(40, 40, 1.0);
    // Wall between x=1 and x=2 up to y=19: the only path from {0,0} to
    // {3,0} detours above y=19, far outside the windowed search region
    // (terminal bbox + margin caps y at 6 here), forcing the
    // windowed -> unwindowed retry.
    for (int y = 0; y <= 19; ++y) {
        GridRoute block;
        block.cells = {{1, y}, {2, y}};
        grid.add_route(block);
    }
    MazeOptions opts;
    opts.hard_blockages = true;
    SearchStats stats;
    const auto r = maze_route(grid, {0, 0}, {3, 0}, opts, &stats);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->cells.front(), (GCell{0, 0}));
    EXPECT_EQ(r->cells.back(), (GCell{3, 0}));
    bool above_wall = false;
    for (const GCell& c : r->cells) above_wall |= (c.y >= 20);
    EXPECT_TRUE(above_wall);
    EXPECT_GT(stats.cells_expanded, 0u);
}

TEST(MazeRouter, MultiSourceSkipsSourcesOutsideGrid) {
    GridGraph grid(16, 16, 4.0);
    const std::vector<GCell> sources{{-3, -3}, {40, 2}, {4, 4}};
    const auto r = maze_route_from_tree(grid, sources, {12, 12});
    ASSERT_TRUE(r.has_value());
    // Only the in-grid source can seed the search.
    EXPECT_EQ(r->cells.front(), (GCell{4, 4}));
    EXPECT_EQ(r->cells.back(), (GCell{12, 12}));
    EXPECT_EQ(r->length(), 16u);  // Manhattan distance from {4,4}
}

TEST(MazeRouter, MultiSourceAllOutsideReturnsNullopt) {
    GridGraph grid(16, 16, 4.0);
    const std::vector<GCell> sources{{-1, 0}, {16, 16}, {5, -2}};
    EXPECT_FALSE(maze_route_from_tree(grid, sources, {8, 8}).has_value());
    EXPECT_FALSE(maze_route_from_tree(grid, {}, {8, 8}).has_value());
}

TEST(MazeRouter, UnreachableReturnsNullopt) {
    GridGraph grid(8, 8, 1.0);
    // Full wall.
    for (int y = 0; y < 8; ++y) {
        GridRoute block;
        block.cells = {{4, y}, {5, y}};
        grid.add_route(block);
    }
    MazeOptions opts;
    opts.hard_blockages = true;
    EXPECT_FALSE(maze_route(grid, {1, 1}, {7, 7}, opts).has_value());
}

TEST(LineSearch, FindsPathAndMatchesEndpoints) {
    GridGraph grid(24, 24, 4.0);
    const auto r = line_search_route(grid, {1, 1}, {20, 17});
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->cells.front(), (GCell{1, 1}));
    EXPECT_EQ(r->cells.back(), (GCell{20, 17}));
    // Path is connected (adjacent cells).
    for (std::size_t i = 1; i < r->cells.size(); ++i) {
        const int d = std::abs(r->cells[i].x - r->cells[i - 1].x) +
                      std::abs(r->cells[i].y - r->cells[i - 1].y);
        EXPECT_EQ(d, 1);
    }
}

TEST(LineSearch, ExpandsFewerCellsThanMazeOnOpenGrid) {
    GridGraph grid(64, 64, 4.0);
    SearchStats ls, mz;
    const auto r1 = line_search_route(grid, {5, 5}, {60, 58}, &ls);
    const auto r2 = maze_route(grid, {5, 5}, {60, 58}, {}, &mz);
    ASSERT_TRUE(r1 && r2);
    EXPECT_LT(ls.cells_expanded, mz.cells_expanded);
}

TEST(LineSearch, DetoursAroundWall) {
    GridGraph grid(16, 16, 1.0);
    for (int y = 0; y < 15; ++y) {
        GridRoute block;
        block.cells = {{8, y}, {9, y}};
        grid.add_route(block);
    }
    const auto r = line_search_route(grid, {2, 2}, {14, 2});
    ASSERT_TRUE(r.has_value());
    bool used_top = false;
    for (const GCell& c : r->cells) used_top |= (c.y == 15);
    EXPECT_TRUE(used_top);
}

TEST(GlobalRouter, RoutesPlacedDesignWithoutOverflow) {
    PlacementArea area;
    const Netlist nl = placed_design(6, 500, &area);
    GlobalRouteOptions opts;
    opts.routing_layers = 6;
    const auto res = route_design(nl, area, opts);
    EXPECT_GT(res.nets.size(), 0u);
    EXPECT_GT(res.total_wirelength, 0u);
    EXPECT_EQ(res.total_overflow, 0.0);
    // Each segment's endpoints must be adjacent along the route.
    for (const RoutedNet& rn : res.nets) {
        for (const GridRoute& s : rn.segments) {
            for (std::size_t i = 1; i < s.cells.size(); ++i) {
                EXPECT_EQ(std::abs(s.cells[i].x - s.cells[i - 1].x) +
                              std::abs(s.cells[i].y - s.cells[i - 1].y),
                          1);
            }
        }
    }
}

TEST(GlobalRouter, HighFanoutTreeDeduplicatesCells) {
    // Regression: the tree grower used to append every path cell without
    // dedup, so a high-fanout net's tree held each trunk cell once per
    // sink, inflating memory and degrading the nearest-cell scan. The tree
    // size must equal the number of unique routed cells.
    GridGraph grid(48, 48, 64.0);
    std::vector<GCell> pins{{24, 24}};
    for (int k = 0; k < 20; ++k) {
        // Sinks on a ring: their L-routes all share trunk cells near the
        // already-routed tree.
        pins.push_back(GCell{24 + (k % 2 ? 15 : 10) * ((k % 4 < 2) ? 1 : -1),
                             24 + (k * 2) % 15 * ((k % 3 < 2) ? 1 : -1)});
    }
    SearchStats stats;
    const RoutedNet rn =
        route_net_tree(grid, 7, pins, RouteEngine::Maze, /*pattern_first=*/true,
                       &stats);
    EXPECT_EQ(rn.net, 7u);
    EXPECT_EQ(rn.segments.size(), pins.size() - 1);
    std::set<std::pair<int, int>> unique_cells{{pins.front().x, pins.front().y}};
    for (const GridRoute& s : rn.segments) {
        for (const GCell& c : s.cells) unique_cells.insert({c.x, c.y});
    }
    EXPECT_EQ(stats.tree_cells, unique_cells.size());
    // Every path is laid by the pattern pass on this uncongested grid.
    EXPECT_GT(stats.pattern_cells, 0u);
    EXPECT_EQ(stats.cells_expanded, 0u);
}

TEST(GlobalRouter, LineSearchEngineAlsoCompletes) {
    PlacementArea area;
    const Netlist nl = placed_design(6, 400, &area);
    GlobalRouteOptions opts;
    opts.engine = RouteEngine::LineSearch;
    const auto res = route_design(nl, area, opts);
    EXPECT_EQ(res.total_overflow, 0.0);
    EXPECT_GT(res.total_wirelength, 0u);
}

// ---------------------------------------------------------- layer assign

TEST(LayerAssign, AssignsAllWirelength) {
    PlacementArea area;
    const Netlist nl = placed_design(7, 500, &area);
    GlobalRouteOptions ropts;
    const auto routes = route_design(nl, area, ropts);
    LayerAssignOptions lopts;
    lopts.routing_layers = 6;
    const auto la = assign_layers(routes, ropts.gcells_x, ropts.gcells_y, lopts);
    EXPECT_EQ(la.total_wirelength, routes.total_wirelength);
    EXPECT_GT(la.via_count, 0u);
    double used = 0;
    for (const double u : la.layer_usage) used += u;
    EXPECT_DOUBLE_EQ(used, static_cast<double>(la.total_wirelength));
}

TEST(LayerAssign, FewerLayersMeansMoreOverflowOrHigherUsage) {
    PlacementArea area;
    const Netlist nl = placed_design(8, 1200, &area);
    const auto routes = route_design(nl, area);
    LayerAssignOptions l6;
    l6.routing_layers = 6;
    LayerAssignOptions l2;
    l2.routing_layers = 2;
    const auto r6 = assign_layers(routes, 32, 32, l6);
    const auto r2 = assign_layers(routes, 32, 32, l2);
    EXPECT_GE(r2.layer_overflow, r6.layer_overflow);
}

// --------------------------------------------------------- multipatterning

TEST(Multipattern, TwoTracksTooCloseNeedTwoMasks) {
    std::vector<WireShape> shapes;
    shapes.push_back({Rect{0, 0, 1000, 20}, -1});
    shapes.push_back({Rect{0, 50, 1000, 70}, -1});  // 30 nm gap < 40 nm
    MplOptions opts;
    opts.num_masks = 1;
    EXPECT_FALSE(decompose(shapes, opts).success());
    opts.num_masks = 2;
    const auto res = decompose(shapes, opts);
    EXPECT_TRUE(res.success());
    EXPECT_NE(res.color[0], res.color[1]);
}

TEST(Multipattern, OddCycleNeedsStitchOrThreeMasks) {
    // Three mutually conflicting shapes (triangle).
    std::vector<WireShape> shapes;
    shapes.push_back({Rect{0, 0, 200, 20}, -1});
    shapes.push_back({Rect{0, 30, 200, 50}, -1});
    shapes.push_back({Rect{210, 0, 230, 50}, -1});  // near both
    MplOptions opts;
    opts.num_masks = 2;
    opts.allow_stitches = false;
    EXPECT_FALSE(decompose(shapes, opts).success());
    opts.num_masks = 3;
    EXPECT_TRUE(decompose(shapes, opts).success());
}

TEST(Multipattern, StitchResolvesOddCycle) {
    // 5-cycle A-B-D-E-C-A: uncolorable with 2 masks, but shape A's
    // conflicts (B on the left, C on the right) leave a stitchable gap in
    // its middle; splitting A there breaks the cycle.
    std::vector<WireShape> shapes;
    shapes.push_back({Rect{0, 0, 1000, 20}, -1});     // A
    shapes.push_back({Rect{0, 30, 200, 50}, -1});     // B (left, above A)
    shapes.push_back({Rect{800, 30, 1000, 50}, -1});  // C (right, above A)
    shapes.push_back({Rect{0, 60, 480, 80}, -1});     // D (above B)
    shapes.push_back({Rect{460, 60, 1000, 80}, -1});  // E (above C, abuts D)
    MplOptions opts;
    opts.num_masks = 2;
    opts.allow_stitches = false;
    EXPECT_FALSE(decompose(shapes, opts).success());
    opts.allow_stitches = true;
    const auto res = decompose(shapes, opts);
    EXPECT_TRUE(res.success());
    EXPECT_GT(res.num_stitches, 0u);
}

TEST(Multipattern, ConflictEdgesSymmetricAndCorrect) {
    std::vector<WireShape> shapes;
    shapes.push_back({Rect{0, 0, 100, 20}, -1});
    shapes.push_back({Rect{0, 100, 100, 120}, -1});  // far: no conflict
    shapes.push_back({Rect{0, 45, 100, 65}, -1});    // near first: 25 gap
    const auto edges = conflict_edges(shapes, 40.0);
    ASSERT_EQ(edges.size(), 2u);  // (0,2) and (1,2): gaps 25 and 35
}

TEST(Multipattern, DenseLayoutSweepShape) {
    // At a generous pitch, 2 masks suffice; at a tight pitch they fail
    // without stitches but 4 masks recover — the panel's DP->QP story.
    const auto loose = make_dense_layout(12, 4000, 120, 40, 0.2, 1);
    MplOptions mp2;
    mp2.num_masks = 2;
    mp2.allow_stitches = false;
    mp2.same_mask_spacing_nm = 100;
    const auto r_loose = decompose(loose, mp2);

    const auto tight = make_dense_layout(12, 4000, 60, 20, 0.2, 1);
    const auto r_tight2 = decompose(tight, mp2);
    MplOptions mp4 = mp2;
    mp4.num_masks = 4;
    const auto r_tight4 = decompose(tight, mp4);
    EXPECT_LE(r_loose.unresolved_conflicts, r_tight2.unresolved_conflicts);
    EXPECT_LT(r_tight4.unresolved_conflicts, r_tight2.unresolved_conflicts);
}

class RouterEngineTest : public ::testing::TestWithParam<RouteEngine> {};

TEST_P(RouterEngineTest, CompletesOnSeedsWithoutOverflow) {
    for (const std::uint64_t seed : {11ull, 12ull}) {
        PlacementArea area;
        const Netlist nl = placed_design(seed, 300, &area);
        GlobalRouteOptions opts;
        opts.engine = GetParam();
        const auto res = route_design(nl, area, opts);
        EXPECT_EQ(res.total_overflow, 0.0) << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Engines, RouterEngineTest,
                         ::testing::Values(RouteEngine::Maze,
                                           RouteEngine::LineSearch));

}  // namespace
}  // namespace janus
