/// Speculative region-parallel detailed-placement suite (docs/PLACE.md):
/// sa_refine tiles the die into ownership regions, each worker slot draws,
/// evaluates and Metropolis-decides its regions' moves against the
/// round-frozen NetBBoxCache, and accepted moves commit serially in
/// region/draw order with cross-region conflicts re-queued — so
/// SaPlaceResult and the final placement must be byte-identical for any
/// worker count. Also pins the accounting bugfixes (exact final HPWL
/// instead of drifting delta accumulation; self-swaps redrawn instead of
/// burning schedule slots; conflict counters that only count true aborts),
/// the batching-efficiency floor that the conflict-degenerate serial
/// batching design failed, and the legalizer's over-capacity reporting.
/// Built as its own binary (like route_parallel_test) so the place
/// concurrency tests are addressable as one ctest unit and run under
/// -DJANUS_TSAN=ON.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "janus/flow/flow.hpp"
#include "janus/flow/flow_engine.hpp"
#include "janus/flow/report.hpp"
#include "janus/netlist/generator.hpp"
#include "janus/place/analytic_place.hpp"
#include "janus/place/legalize.hpp"
#include "janus/place/net_bbox.hpp"
#include "janus/place/sa_place.hpp"
#include "janus/util/rng.hpp"

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

SaPlaceOptions sa_opts(int workers, int moves_per_cell = 40) {
    SaPlaceOptions o;
    o.moves_per_cell = moves_per_cell;
    o.workers = workers;
    return o;
}

/// Byte-level equality of everything sa_refine produces: every counter,
/// every HPWL double (bitwise, hence EXPECT_EQ not NEAR), and the position
/// of every instance of the refined netlists.
void expect_identical(const SaPlaceResult& a, const SaPlaceResult& b,
                      const Netlist& na, const Netlist& nb,
                      const std::string& what) {
    EXPECT_EQ(a.total_moves, b.total_moves) << what;
    EXPECT_EQ(a.accepted_moves, b.accepted_moves) << what;
    EXPECT_EQ(a.rejected_moves, b.rejected_moves) << what;
    EXPECT_EQ(a.drawn_moves, b.drawn_moves) << what;
    EXPECT_EQ(a.attempted_draws, b.attempted_draws) << what;
    EXPECT_EQ(a.degenerate_draws, b.degenerate_draws) << what;
    EXPECT_EQ(a.regions, b.regions) << what;
    EXPECT_EQ(a.rounds, b.rounds) << what;
    EXPECT_EQ(a.local_defers, b.local_defers) << what;
    EXPECT_EQ(a.commit_aborts, b.commit_aborts) << what;
    EXPECT_EQ(a.abandoned_moves, b.abandoned_moves) << what;
    EXPECT_EQ(a.initial_hpwl_um, b.initial_hpwl_um) << what;
    EXPECT_EQ(a.final_hpwl_um, b.final_hpwl_um) << what;
    EXPECT_EQ(a.accumulated_hpwl_um, b.accumulated_hpwl_um) << what;
    ASSERT_EQ(na.num_instances(), nb.num_instances()) << what;
    for (InstId i = 0; i < na.num_instances(); ++i) {
        ASSERT_EQ(na.instance(i).position, nb.instance(i).position)
            << what << " instance " << i;
    }
}

TEST(PlaceParallel, ByteIdenticalAcrossWorkerCountsOnTwoSeeds) {
    for (const std::uint64_t seed : {31ull, 32ull}) {
        PlacementArea area;
        const Netlist base_nl = placed_design(seed, 900, &area);
        Netlist serial = base_nl;
        const SaPlaceResult base = sa_refine(serial, area, sa_opts(1));
        // The speculative engine must actually run multi-region rounds with
        // commits, otherwise this proves nothing about the parallel path.
        ASSERT_GT(base.rounds, 1u) << "seed " << seed;
        ASSERT_GT(base.regions, 1u) << "seed " << seed;
        ASSERT_GT(base.accepted_moves, 0u) << "seed " << seed;
        for (const int workers : {2, 4, 8}) {
            Netlist par = base_nl;
            const SaPlaceResult r = sa_refine(par, area, sa_opts(workers));
            expect_identical(base, r, serial, par,
                             "seed " + std::to_string(seed) + " workers " +
                                 std::to_string(workers));
        }
    }
}

TEST(PlaceParallel, FinalHpwlIsExactNotAccumulated) {
    PlacementArea area;
    Netlist nl = placed_design(33, 600, &area);
    const SaPlaceResult res = sa_refine(nl, area, sa_opts(2, 50));
    ASSERT_GT(res.accepted_moves, 0u);
    EXPECT_LE(res.final_hpwl_um, res.initial_hpwl_um);
    // The returned value is the from-scratch recomputation, not the
    // floating-point accumulation of per-move deltas.
    EXPECT_NEAR(res.final_hpwl_um, total_hpwl_um(nl, area),
                1e-6 * res.final_hpwl_um);
    // And the accumulation (kept as a diagnostic) must not have drifted.
    EXPECT_NEAR(res.accumulated_hpwl_um, res.final_hpwl_um,
                1e-6 * res.final_hpwl_um);
}

TEST(PlaceParallel, SelfSwapsAreRedrawnAndCounted) {
    // Tiny design: small width groups make degenerate a == b draws common.
    PlacementArea area;
    Netlist nl = placed_design(34, 20, &area);
    const SaPlaceResult res = sa_refine(nl, area, sa_opts(1, 50));
    EXPECT_GT(res.drawn_moves, 0u);
    EXPECT_GT(res.degenerate_draws, 0u);
    // Every partner draw is either degenerate (and redrawn) or becomes a
    // drawn candidate; nothing silently burns a schedule slot.
    EXPECT_EQ(res.attempted_draws, res.drawn_moves + res.degenerate_draws);
}

TEST(PlaceParallel, FullMoveBudgetIsEvaluatedOnRealDesigns) {
    // With realistic group sizes the bounded partner redraw essentially
    // never exhausts, so nearly every slot becomes a drawn candidate — the
    // pre-cache code silently dropped the a == b fraction of the budget.
    PlacementArea area;
    Netlist nl = placed_design(31, 900, &area);
    const SaPlaceResult res = sa_refine(nl, area, sa_opts(1));
    EXPECT_GE(res.drawn_moves, 39u * nl.num_instances());
    EXPECT_LE(res.drawn_moves, 40u * nl.num_instances());
    EXPECT_EQ(res.attempted_draws, res.drawn_moves + res.degenerate_draws);
}

TEST(PlaceParallel, ConflictAccountingCountsOnlyTrueAborts) {
    // The old batching accounting double-counted: a carried-over draw both
    // closed its batch (a "conflict") and seeded the next, so conflicts
    // tracked batch count instead of contention. The speculative counters
    // must satisfy the lifecycle identities instead: every drawn candidate
    // ends exactly once (committed, rejected, or abandoned), and every
    // evaluation ends as a commit, a rejection, or a commit abort that
    // re-evaluates later.
    PlacementArea area;
    Netlist nl = placed_design(31, 900, &area);
    const SaPlaceResult res = sa_refine(nl, area, sa_opts(1));
    EXPECT_EQ(res.drawn_moves,
              res.accepted_moves + res.rejected_moves + res.abandoned_moves);
    EXPECT_EQ(res.total_moves,
              res.accepted_moves + res.rejected_moves + res.commit_aborts);
    // Aborts are the exception, not one per round: the commit rate must
    // stay high for speculation to beat serial execution.
    EXPECT_GT(res.commit_rate(), 0.5);
}

TEST(PlaceParallel, BatchingEfficiencyStaysAboveFloor) {
    // The regression this PR fixes: the serial net-claim batching collapsed
    // to ~1 move per batch (11k+ pool dispatches per run), making 4 workers
    // slower than 1. The region engine must keep whole-round evaluation
    // batches; a floor of 32 moves per round leaves ~8x headroom below the
    // expected value while still failing any per-move dispatch regression.
    PlacementArea area;
    Netlist nl = placed_design(31, 900, &area);
    const SaPlaceResult res = sa_refine(nl, area, sa_opts(4));
    ASSERT_GT(res.rounds, 0u);
    EXPECT_GE(res.moves_per_round(), 32.0);
}

TEST(PlaceParallel, NetBBoxCacheStaysExactUnderRandomSwaps) {
    PlacementArea area;
    Netlist nl = placed_design(35, 400, &area);
    NetBBoxCache cache(nl, area);
    EXPECT_DOUBLE_EQ(cache.total_hpwl_um(), total_hpwl_um(nl, area));
    // Drive the incremental O(1)/rescan paths hard with arbitrary swaps
    // (legality does not matter to the cache), then check exactness.
    Rng rng(7);
    for (int k = 0; k < 500; ++k) {
        const InstId a = static_cast<InstId>(rng.pick_index(nl.num_instances()));
        const InstId b = static_cast<InstId>(rng.pick_index(nl.num_instances()));
        if (a == b) continue;
        const Point pa = nl.instance(a).position;
        const Point pb = nl.instance(b).position;
        std::swap(nl.instance(a).position, nl.instance(b).position);
        cache.apply_swap(a, pa, b, pb);
    }
    EXPECT_DOUBLE_EQ(cache.total_hpwl_um(), total_hpwl_um(nl, area));
    // Boundary-shrinking commits took the rescan path at least once, so
    // the exactness above covered both code paths.
    EXPECT_GT(cache.rescans(), 0u);
}

TEST(PlaceParallel, LegalizerOverCapacityReportsFailure) {
    GeneratorConfig cfg;
    cfg.num_gates = 200;
    cfg.seed = 9;
    Netlist nl = generate_random(lib28(), cfg);
    const PlacementArea area = make_placement_area(nl, *find_node("28nm"));
    analytic_place(nl, area);
    // Two rows of sixteen sites cannot hold 200 cells: the legalizer must
    // report failure and the result must not pass the legality check.
    PlacementArea tiny = area;
    tiny.num_rows = 2;
    tiny.die.hi.y = tiny.die.lo.y + 2 * tiny.row_height;
    tiny.die.hi.x = tiny.die.lo.x + 16 * tiny.site_width;
    const LegalizeResult lg = legalize(nl, tiny);
    EXPECT_FALSE(lg.success);
    EXPECT_FALSE(is_legal(nl, tiny));
}

TEST(PlaceParallel, LegalityRoundTripAfterParallelRefine) {
    // Swaps exchange row slots between cells of equal site width, so the
    // placement must still be legal after legalize + sa_refine.
    PlacementArea area;
    Netlist nl = placed_design(36, 500, &area);
    ASSERT_TRUE(is_legal(nl, area));
    const SaPlaceResult res = sa_refine(nl, area, sa_opts(4));
    EXPECT_GT(res.accepted_moves, 0u);
    EXPECT_TRUE(is_legal(nl, area));
}

TEST(PlaceParallel, FlowParamsValidatePlaceWorkers) {
    FlowParams p;
    p.workers = -2;
    EXPECT_NE(p.check().find("workers"), std::string::npos);
    p.workers = 8;
    EXPECT_TRUE(p.check().empty());
}

TEST(PlaceParallel, FlowStagesTracePlacementDetail) {
    GeneratorConfig cfg;
    cfg.num_gates = 300;
    cfg.seed = 5;
    Netlist nl = generate_random(lib28(), cfg);
    FlowParams params;
    params.sa_moves_per_cell = 10;
    params.workers = 2;
    FlowContext ctx(std::move(nl), *find_node("28nm"), params);
    FlowEngine engine;
    engine.run_to(ctx, "sa_refine");
    const auto entry_of = [&](const std::string& stage) -> const StageTraceEntry& {
        for (const StageTraceEntry& e : ctx.trace.entries) {
            if (e.stage == stage) return e;
        }
        static const StageTraceEntry missing;
        return missing;
    };
    EXPECT_NE(entry_of("place").find_note("hpwl"), nullptr);
    // 300 gates stay below the coarsest-level size: one level, whose
    // solves all count as fine iterations.
    EXPECT_EQ(entry_of("place").note_int("levels"), 1);
    EXPECT_GT(entry_of("place").note_int("fine_iterations"), 0);
    EXPECT_EQ(entry_of("place").find_note("iters"), nullptr);
    EXPECT_NE(entry_of("legalize").find_note("disp_total"), nullptr);
    EXPECT_NE(entry_of("legalize").find_note("disp_max"), nullptr);
    EXPECT_EQ(entry_of("legalize").note_int("success"), 1);
    EXPECT_NE(entry_of("sa_refine").find_note("moves"), nullptr);
    EXPECT_NE(entry_of("sa_refine").find_note("accepted"), nullptr);
    EXPECT_NE(entry_of("sa_refine").find_note("regions"), nullptr);
    EXPECT_NE(entry_of("sa_refine").find_note("rounds"), nullptr);
    EXPECT_NE(entry_of("sa_refine").find_note("aborts"), nullptr);
    EXPECT_NE(entry_of("sa_refine").find_note("commit_rate"), nullptr);
    EXPECT_NE(entry_of("sa_refine").find_note("moves_per_round"), nullptr);
    EXPECT_EQ(entry_of("sa_refine").note_int("workers"), 2);
    EXPECT_NE(entry_of("sa_refine").find_note("hpwl_delta"), nullptr);
    const std::string json = stage_trace_json(ctx.trace).dump();
    EXPECT_NE(json.find("\"sa_refine\""), std::string::npos);
}

TEST(PlaceParallel, SaRefineStageSkippedWhenDisabled) {
    GeneratorConfig cfg;
    cfg.num_gates = 200;
    cfg.seed = 6;
    Netlist nl = generate_random(lib28(), cfg);
    FlowParams params;  // sa_moves_per_cell defaults to 0
    FlowContext ctx(std::move(nl), *find_node("28nm"), params);
    FlowEngine engine;
    engine.run_to(ctx, "sa_refine");
    bool saw = false;
    for (const StageTraceEntry& e : ctx.trace.entries) {
        if (e.stage == "sa_refine") {
            saw = true;
            EXPECT_TRUE(e.skipped);
        }
    }
    EXPECT_TRUE(saw);
}

}  // namespace
}  // namespace janus
