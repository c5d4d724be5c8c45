/// asic_flow — the full JanusEDA implementation flow, end to end.
///
/// Takes a sequential design through scan insertion, placement,
/// legalization, scan reorder, global routing, STA and power, at two
/// technology nodes — the "same flow at emerging and established nodes"
/// story the DATE'16 panel tells. Also demonstrates the flow tuner.

#include <cstdio>
#include <memory>
#include <vector>

#include "janus/flow/flow.hpp"
#include "janus/flow/flow_engine.hpp"
#include "janus/flow/report.hpp"
#include "janus/flow/tuner.hpp"
#include "janus/netlist/generator.hpp"

using namespace janus;

int main() {
    std::vector<FlowResult> results;
    for (const char* node_name : {"28nm", "180nm"}) {
        const TechnologyNode node = *find_node(node_name);
        const auto lib =
            std::make_shared<const CellLibrary>(make_default_library(node));

        // A 4-stage pipelined datapath: realistic structure for both the
        // physical flow and the scan chains threaded through it.
        const Netlist design = generate_mesh(lib, 2500, 7, 4);

        FlowParams params;
        params.stages = FlowStageMask::Scan | FlowStageMask::ClockTree;
        params.scan_chains = 4;
        FlowResult r = run_flow(design, node, params);
        r.design = std::string(node_name) + "/" + design.name();
        std::printf("[%s] scan chains stitched: %.0f um of scan wiring\n",
                    node_name, r.scan_wirelength_um);
        results.push_back(std::move(r));
    }
    std::printf("\n%s\n", format_flow_table(results).c_str());

    // Staged engine: run to placement, inspect, then resume — the API the
    // monolithic run_flow() wraps. Each stage lands in the trace with wall
    // time and QoR deltas.
    {
        const TechnologyNode node = *find_node("28nm");
        const auto lib =
            std::make_shared<const CellLibrary>(make_default_library(node));
        FlowEngine engine;
        FlowContext ctx(generate_mesh(lib, 1500, 3, 2), node, FlowParams{});
        const FlowResult at_place = engine.run_to(ctx, "legalize");
        std::printf("after legalize: HPWL %.0f um (%s), routing pending\n",
                    at_place.hpwl_um, at_place.legal ? "legal" : "ILLEGAL");
        engine.run(ctx);  // resume through route/cts/sta/power
        std::printf("stage trace: %s\n\n",
                    stage_trace_json(ctx.trace).dump().c_str());
    }

    // Self-learning: let the tuner pick flow parameters over repeated runs
    // (panel E6 — "a built-in self-learning engine").
    const TechnologyNode node = *find_node("28nm");
    const auto lib = std::make_shared<const CellLibrary>(make_default_library(node));
    const auto arms = default_arms();
    TunerOptions topts;
    topts.runs = 12;
    const TunerResult tuned = tune(
        arms,
        [&](const FlowParams& p, int run) {
            GeneratorConfig cfg;
            cfg.num_gates = 400;
            cfg.seed = 100 + static_cast<std::uint64_t>(run);
            return run_flow(generate_random(lib, cfg), node, p).cost();
        },
        topts);
    std::printf("tuner verdict after %zu runs: '%s' (mean cost %.1f)\n",
                tuned.history.size(), arms[tuned.best_arm].name.c_str(),
                tuned.best_mean_cost);
    return 0;
}
