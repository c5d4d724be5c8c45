/// Speculative panel-parallel global routing determinism suite
/// (docs/ROUTING.md): the negotiation loop bins congested nets into gcell
/// ownership panels, each worker slot reroutes its panels' chains on a
/// private copy of the round-frozen grid, and commits serially in panel/net
/// order with conflicted chains re-queued — so GlobalRouteResult must be
/// byte-identical for any worker count. Also pins the round-efficiency
/// floor the per-level batching design failed. Built as its own binary
/// (like flow_engine_test) so the route concurrency tests are addressable
/// as one ctest unit and run under -DJANUS_TSAN=ON to race-check the
/// parallel reroute path.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "janus/flow/flow.hpp"
#include "janus/flow/flow_engine.hpp"
#include "janus/flow/report.hpp"
#include "janus/netlist/generator.hpp"
#include "janus/place/analytic_place.hpp"
#include "janus/place/legalize.hpp"
#include "janus/route/global_router.hpp"

namespace janus {
namespace {

std::shared_ptr<const CellLibrary> lib28() {
    static const auto lib = std::make_shared<const CellLibrary>(
        make_default_library(*find_node("28nm")));
    return lib;
}

Netlist placed_design(std::uint64_t seed, std::size_t gates,
                      PlacementArea* area_out) {
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

/// Byte-level equality of everything route_design produces, including every
/// cell of every segment of every net.
void expect_identical(const GlobalRouteResult& a, const GlobalRouteResult& b,
                      const std::string& what) {
    EXPECT_EQ(a.total_wirelength, b.total_wirelength) << what;
    EXPECT_EQ(a.total_overflow, b.total_overflow) << what;
    EXPECT_EQ(a.overflowed_edges, b.overflowed_edges) << what;
    EXPECT_EQ(a.iterations, b.iterations) << what;
    EXPECT_EQ(a.search_cells_expanded, b.search_cells_expanded) << what;
    EXPECT_EQ(a.pattern_cells, b.pattern_cells) << what;
    EXPECT_EQ(a.reroute_rounds, b.reroute_rounds) << what;
    EXPECT_EQ(a.reroute_conflicts, b.reroute_conflicts) << what;
    EXPECT_EQ(a.speculated_nets, b.speculated_nets) << what;
    EXPECT_EQ(a.committed_nets, b.committed_nets) << what;
    EXPECT_EQ(a.panels, b.panels) << what;
    ASSERT_EQ(a.nets.size(), b.nets.size()) << what;
    for (std::size_t i = 0; i < a.nets.size(); ++i) {
        ASSERT_EQ(a.nets[i].net, b.nets[i].net) << what << " net " << i;
        ASSERT_EQ(a.nets[i].segments.size(), b.nets[i].segments.size())
            << what << " net " << i;
        for (std::size_t s = 0; s < a.nets[i].segments.size(); ++s) {
            EXPECT_EQ(a.nets[i].segments[s].cells, b.nets[i].segments[s].cells)
                << what << " net " << i << " segment " << s;
        }
    }
}

/// Few layers -> low capacity -> the first pass overflows and the
/// negotiation loop (the parallelized path) must actually run.
GlobalRouteOptions congested_opts(int workers) {
    GlobalRouteOptions opts;
    opts.routing_layers = 2;
    opts.route_workers = workers;
    return opts;
}

TEST(RouteParallel, ByteIdenticalAcrossWorkerCountsOnTwoSeeds) {
    for (const std::uint64_t seed : {21ull, 22ull}) {
        PlacementArea area;
        const Netlist nl = placed_design(seed, 1200, &area);
        const auto base = route_design(nl, area, congested_opts(1));
        // The congested setup must exercise the speculative negotiation
        // loop, otherwise this test proves nothing about the parallel path.
        ASSERT_GT(base.iterations, 0) << "seed " << seed;
        ASSERT_GT(base.reroute_rounds, 0u) << "seed " << seed;
        ASSERT_GT(base.committed_nets, 0u) << "seed " << seed;
        // Several panels, so identity covers cross-panel commit order.
        ASSERT_GT(base.panels, 1u) << "seed " << seed;
        for (const int workers : {2, 4, 8}) {
            const auto par = route_design(nl, area, congested_opts(workers));
            expect_identical(base, par,
                             "seed " + std::to_string(seed) + " workers " +
                                 std::to_string(workers));
        }
    }
}

TEST(RouteParallel, LineSearchEngineIsAlsoWorkerInvariant) {
    PlacementArea area;
    const Netlist nl = placed_design(23, 800, &area);
    GlobalRouteOptions o1 = congested_opts(1);
    o1.engine = RouteEngine::LineSearch;
    GlobalRouteOptions o4 = congested_opts(4);
    o4.engine = RouteEngine::LineSearch;
    expect_identical(route_design(nl, area, o1), route_design(nl, area, o4),
                     "line-search workers 4");
}

TEST(RouteParallel, UncongestedDesignNeverEntersNegotiation) {
    PlacementArea area;
    const Netlist nl = placed_design(6, 300, &area);
    GlobalRouteOptions opts;
    opts.route_workers = 4;
    const auto res = route_design(nl, area, opts);
    EXPECT_EQ(res.total_overflow, 0.0);
    if (res.iterations == 0) {
        EXPECT_EQ(res.reroute_rounds, 0u);
        EXPECT_EQ(res.reroute_conflicts, 0u);
        EXPECT_EQ(res.speculated_nets, 0u);
    }
}

TEST(RouteParallel, SpeculationAccountingAndEfficiencyFloor) {
    PlacementArea area;
    const Netlist nl = placed_design(21, 1200, &area);
    const auto res = route_design(nl, area, congested_opts(4));
    ASSERT_GT(res.reroute_rounds, 0u);
    // Every speculative reroute ends exactly once: committed, or aborted
    // and re-queued (a later round re-speculates it as a fresh unit).
    EXPECT_EQ(res.speculated_nets,
              res.committed_nets + res.reroute_conflicts);
    // The regression this PR fixes: per-level batches collapsed toward one
    // net per dispatch. Whole-round speculation must keep several nets per
    // round; the floor leaves headroom below typical values while failing
    // any per-net dispatch regression.
    EXPECT_GE(res.nets_per_round(), 4.0);
}

TEST(RouteParallel, FlowParamsValidateRouteWorkers) {
    FlowParams p;
    p.workers = 8;
    EXPECT_TRUE(p.check().empty());
    p.workers = 0;
    EXPECT_NE(p.check().find("workers"), std::string::npos);
}

TEST(RouteParallel, FlowRouteStageTracesSpeculationAndWorkers) {
    GeneratorConfig cfg;
    cfg.num_gates = 300;
    cfg.seed = 5;
    Netlist nl = generate_random(lib28(), cfg);
    FlowParams params;
    params.workers = 2;
    FlowContext ctx(std::move(nl), *find_node("28nm"), params);
    FlowEngine engine;
    engine.run_to(ctx, "route");
    const StageTraceEntry* route_entry = nullptr;
    for (const StageTraceEntry& e : ctx.trace.entries) {
        if (e.stage == "route") route_entry = &e;
    }
    ASSERT_NE(route_entry, nullptr);
    EXPECT_NE(route_entry->find_note("rounds"), nullptr);
    EXPECT_NE(route_entry->find_note("panels"), nullptr);
    EXPECT_NE(route_entry->find_note("aborts"), nullptr);
    EXPECT_NE(route_entry->find_note("commit_rate"), nullptr);
    EXPECT_NE(route_entry->find_note("nets_per_round"), nullptr);
    EXPECT_EQ(route_entry->note_int("workers"), 2);
    const std::string json = stage_trace_json(ctx.trace).dump();
    EXPECT_NE(json.find("\"detail\":{"), std::string::npos);
    EXPECT_NE(json.find("\"workers\":2"), std::string::npos);
}

}  // namespace
}  // namespace janus
