/// Microbenchmarks of the JanusEDA hot kernels (google-benchmark):
/// AIG construction + rewriting, cut enumeration and cut-function
/// evaluation, Espresso, global placement, SA detailed placement, full STA
/// and a warm server session's resize ECO, maze vs line-search routing,
/// bit-parallel fault simulation, BDD/BBDD builds, SOR grid solve, and the
/// .jnl reader. These are the per-operation costs behind the
/// experiment-level numbers in E1/E3/E5/E9, the interactive path of the
/// flow server and the load time every text-fed flow pays first.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "janus/dft/fault_sim.hpp"
#include "janus/flow/flow_engine.hpp"
#include "janus/logic/aig.hpp"
#include "janus/logic/aig_rewrite.hpp"
#include "janus/logic/bbdd.hpp"
#include "janus/logic/bdd.hpp"
#include "janus/logic/cut_enum.hpp"
#include "janus/logic/espresso.hpp"
#include "janus/logic/tech_map.hpp"
#include "janus/netlist/generator.hpp"
#include "janus/netlist/io.hpp"
#include "janus/place/analytic_place.hpp"
#include "janus/place/legalize.hpp"
#include "janus/place/sa_place.hpp"
#include "janus/power/power_grid.hpp"
#include "janus/route/line_search.hpp"
#include "janus/route/maze_router.hpp"
#include "janus/server/session.hpp"
#include "janus/timing/timing_graph.hpp"
#include "janus/util/rng.hpp"

namespace {

using namespace janus;

std::shared_ptr<const CellLibrary> lib28() {
    static const auto lib = std::make_shared<const CellLibrary>(
        make_default_library(*find_node("28nm")));
    return lib;
}

Netlist bench_design(std::size_t gates) {
    GeneratorConfig cfg;
    cfg.num_gates = gates;
    cfg.num_inputs = 24;
    cfg.seed = 7;
    return generate_random(lib28(), cfg);
}

void BM_AigFromNetlist(benchmark::State& state) {
    const Netlist nl = bench_design(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(Aig::from_netlist(nl).num_ands());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AigFromNetlist)->Arg(500)->Arg(2000);

void BM_AigRefactor(benchmark::State& state) {
    const Aig aig =
        Aig::from_netlist(bench_design(static_cast<std::size_t>(state.range(0))))
            .cleanup();
    for (auto _ : state) {
        benchmark::DoNotOptimize(refactor(aig).num_ands());
    }
}
// 10000 gates is the synth_random workload's design size.
BENCHMARK(BM_AigRefactor)->Arg(500)->Arg(2000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_CutEnumeration(benchmark::State& state) {
    const Aig aig = Aig::from_netlist(bench_design(2000)).cleanup();
    for (auto _ : state) {
        benchmark::DoNotOptimize(enumerate_cuts(aig).cuts.size());
    }
}
BENCHMARK(BM_CutEnumeration);

void BM_CutConeEvaluate(benchmark::State& state) {
    // Truth tables of every refactoring cut (K = 5) of a 2k-gate AIG; the
    // cut set is built outside the timed loop.
    const Aig aig = Aig::from_netlist(bench_design(2000)).cleanup();
    CutEnumOptions opts;
    opts.max_leaves = 5;
    opts.max_cuts_per_node = 6;
    const CutSet cuts = enumerate_cuts(aig, opts);
    std::int64_t evaluated = 0;
    for (auto _ : state) {
        CutConeEvaluator evaluator(aig);
        std::uint64_t fold = 0;
        for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
            if (!aig.is_and(n)) continue;
            for (const Cut& cut : cuts.cuts[n]) {
                fold ^= evaluator.evaluate(n, cut).hash();
                ++evaluated;
            }
        }
        benchmark::DoNotOptimize(fold);
    }
    state.SetItemsProcessed(evaluated);
}
BENCHMARK(BM_CutConeEvaluate);

void BM_TechMap(benchmark::State& state) {
    const Aig aig = Aig::from_netlist(bench_design(1000)).cleanup();
    for (auto _ : state) {
        benchmark::DoNotOptimize(tech_map(aig, lib28()).num_instances());
    }
}
BENCHMARK(BM_TechMap);

void BM_Espresso(benchmark::State& state) {
    // Random 6-variable function.
    Rng rng(11);
    TruthTable tt(6);
    for (std::uint64_t m = 0; m < 64; ++m) tt.set_bit(m, rng.next_bool());
    const Cover onset = Cover::from_truth_table(tt);
    for (auto _ : state) {
        benchmark::DoNotOptimize(espresso(onset).cover.size());
    }
}
BENCHMARK(BM_Espresso);

void BM_AnalyticPlace(benchmark::State& state) {
    // Each call restarts from the seeded random spread, so one netlist
    // serves every iteration.
    Netlist nl = generate_mesh(lib28(), static_cast<std::size_t>(state.range(0)), 15);
    const PlacementArea area = make_placement_area(nl, *find_node("28nm"), 0.65);
    for (auto _ : state) {
        benchmark::DoNotOptimize(analytic_place(nl, area).hpwl_um);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(nl.num_instances()));
}
BENCHMARK(BM_AnalyticPlace)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_SaRefine(benchmark::State& state) {
    // A pipelined 20k mesh (the flat_mesh shape), placed and legalized
    // once; each iteration refines a fresh copy at 8 moves per cell on one
    // worker, as the flat_mesh workload's sa_refine stage does.
    Netlist placed = generate_mesh(lib28(), 20000, 15, 4);
    const PlacementArea area = make_placement_area(placed, *find_node("28nm"), 0.65);
    analytic_place(placed, area);
    legalize(placed, area);
    SaPlaceOptions opts;
    opts.moves_per_cell = 8;
    std::int64_t moves = 0;
    for (auto _ : state) {
        state.PauseTiming();
        Netlist nl = placed;
        state.ResumeTiming();
        const SaPlaceResult r = sa_refine(nl, area, opts);
        benchmark::DoNotOptimize(r.final_hpwl_um);
        moves += static_cast<std::int64_t>(r.total_moves);
    }
    state.SetItemsProcessed(moves);
}
BENCHMARK(BM_SaRefine)->Unit(benchmark::kMillisecond);

void BM_StaAnalyze(benchmark::State& state) {
    // Full STA of the flat_mesh shape: a pipelined 45k mesh, placed and
    // legalized once; the graph is built once and each iteration is one
    // analyze() on 1 worker (every gate delay plus both sweeps).
    Netlist nl = generate_mesh(lib28(), 45000, 1, 4);
    const TechnologyNode node = *find_node("28nm");
    const PlacementArea area = make_placement_area(nl, node, 0.65);
    analytic_place(nl, area);
    legalize(nl, area);
    StaOptions opts;
    opts.wire = WireModel::for_node(node);
    TimingGraph tg(nl, opts);
    for (auto _ : state) {
        tg.analyze();
        benchmark::DoNotOptimize(tg.critical_delay_ps());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(nl.num_instances()));
}
BENCHMARK(BM_StaAnalyze)->Unit(benchmark::kMillisecond);

void BM_SessionEco(benchmark::State& state) {
    // The eco_mixed request in process: a 20k-mesh session placed through
    // legalize and timed once (warm); each iteration applies one ECO of 16
    // resizes up and one that takes the same 16 back down.
    const TechnologyNode node = *find_node("28nm");
    server::Session session("bench", generate_mesh(lib28(), 20000, 3, 4), node,
                            FlowParams{});
    session.run_to(FlowEngine{}, "legalize");
    session.timing();
    const Netlist& nl = session.context().netlist;
    const CellLibrary& lib = nl.library();
    std::vector<server::EcoEdit> up, down;
    Rng rng(11);
    while (up.size() < 16) {
        const auto i = static_cast<InstId>(rng.next_below(nl.num_instances()));
        const CellType& cell = nl.type_of(i);
        if (is_sequential(cell.function)) continue;
        const std::string name(nl.instance_name(i));
        if (std::any_of(up.begin(), up.end(),
                        [&](const server::EcoEdit& e) { return e.instance == name; })) {
            continue;
        }
        for (const std::size_t v : lib.variants(cell.function)) {
            if (lib.cell(v).drive <= cell.drive) continue;
            up.push_back({server::EcoEdit::Kind::Resize, name, lib.cell(v).name, -1, ""});
            down.push_back({server::EcoEdit::Kind::Resize, name, cell.name, -1, ""});
            break;
        }
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(session.apply_eco(up).evals);
        benchmark::DoNotOptimize(session.apply_eco(down).evals);
    }
    state.SetItemsProcessed(state.iterations() * 2);  // ECOs
}
BENCHMARK(BM_SessionEco)->Unit(benchmark::kMicrosecond);

void BM_MazeRoute(benchmark::State& state) {
    GridGraph grid(64, 64, 8.0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(maze_route(grid, {2, 3}, {60, 58}));
    }
}
BENCHMARK(BM_MazeRoute);

void BM_LineSearchRoute(benchmark::State& state) {
    GridGraph grid(64, 64, 8.0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(line_search_route(grid, {2, 3}, {60, 58}));
    }
}
BENCHMARK(BM_LineSearchRoute);

void BM_FaultSimBatch(benchmark::State& state) {
    const Netlist nl = bench_design(1000);
    PatternBatch batch;
    batch.words.assign(num_input_slots(nl), 0xDEADBEEFCAFEBABEull);
    for (auto _ : state) {
        benchmark::DoNotOptimize(simulate_batch(nl, batch).size());
    }
    state.SetItemsProcessed(state.iterations() * 64);  // patterns per batch
}
BENCHMARK(BM_FaultSimBatch);

void BM_BddAdder(benchmark::State& state) {
    const Netlist nl = generate_adder(lib28(), 6);
    const auto tts = Aig::from_netlist(nl).output_truth_tables();
    for (auto _ : state) {
        Bdd bdd(13);
        std::size_t total = 0;
        for (const TruthTable& tt : tts) total += bdd.from_truth_table(tt);
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_BddAdder);

void BM_BbddAdder(benchmark::State& state) {
    const Netlist nl = generate_adder(lib28(), 6);
    const auto tts = Aig::from_netlist(nl).output_truth_tables();
    for (auto _ : state) {
        Bbdd bbdd(13);
        std::size_t total = 0;
        for (const TruthTable& tt : tts) total += bbdd.from_truth_table(tt);
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_BbddAdder);

void BM_PowerGridSolve(benchmark::State& state) {
    PowerGrid grid(Rect{0, 0, 100000, 100000}, 0.95);
    Rng rng(5);
    for (std::size_t r = 0; r < grid.rows(); ++r) {
        for (std::size_t c = 0; c < grid.cols(); ++c) {
            grid.add_current(c, r, rng.next_double());
        }
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(grid.solve().worst_drop_v);
    }
}
BENCHMARK(BM_PowerGridSolve);

void BM_ReadNetlist(benchmark::State& state) {
    const std::string text = netlist_to_string(generate_mesh(lib28(), 45000, 7, 4));
    for (auto _ : state) {
        benchmark::DoNotOptimize(netlist_from_string(text, lib28()).num_instances());
    }
    state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ReadNetlist)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
