// Tests for the staged FlowEngine API: staged/legacy equivalence, batch
// bit-identity across worker counts, stage skip/resume round-trips,
// FlowParams and input-netlist validation, and the thread pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "janus/flow/flow.hpp"
#include "janus/flow/flow_engine.hpp"
#include "janus/flow/report.hpp"
#include "janus/netlist/generator.hpp"
#include "janus/util/rng.hpp"
#include "janus/util/thread_pool.hpp"

namespace janus {
namespace {

std::shared_ptr<const CellLibrary> lib28() {
    static const auto lib = std::make_shared<const CellLibrary>(
        make_default_library(*find_node("28nm")));
    return lib;
}

// QoR fields must match exactly: the staged pipeline runs the same
// algorithms with the same seeds in the same order, so any drift is a
// refactoring bug, not noise.
void expect_same_qor(const FlowResult& a, const FlowResult& b) {
    EXPECT_EQ(a.instances, b.instances);
    EXPECT_EQ(a.area_um2, b.area_um2);
    EXPECT_EQ(a.hpwl_um, b.hpwl_um);
    EXPECT_EQ(a.route_wirelength, b.route_wirelength);
    EXPECT_EQ(a.route_overflow, b.route_overflow);
    EXPECT_EQ(a.critical_delay_ps, b.critical_delay_ps);
    EXPECT_EQ(a.wns_ps, b.wns_ps);
    EXPECT_EQ(a.total_power_mw, b.total_power_mw);
    EXPECT_EQ(a.scan_wirelength_um, b.scan_wirelength_um);
    EXPECT_EQ(a.clock_skew_ps, b.clock_skew_ps);
    EXPECT_EQ(a.clock_wirelength_um, b.clock_wirelength_um);
    EXPECT_EQ(a.cells_resized, b.cells_resized);
    EXPECT_EQ(a.legal, b.legal);
}

Netlist small_design(std::uint64_t seed, std::size_t flops = 0) {
    GeneratorConfig cfg;
    cfg.num_gates = 200;
    cfg.num_flops = flops;
    cfg.seed = seed;
    return generate_random(lib28(), cfg);
}

// ------------------------------------------------------- (a) equivalence

TEST(FlowEngine, StagedRunMatchesLegacyWrapperOnTwoSeeds) {
    const auto node = *find_node("28nm");
    for (const std::uint64_t seed : {11u, 29u}) {
        const Netlist nl = small_design(seed);
        FlowParams params;
        params.seed = seed;
        const FlowResult legacy = run_flow(nl, node, params);

        FlowEngine engine;
        FlowContext ctx(nl, node, params);
        const FlowResult staged = engine.run(ctx);
        expect_same_qor(legacy, staged);
    }
}

TEST(FlowEngine, SequentialScanFlowMatchesLegacyWrapper) {
    const auto node = *find_node("28nm");
    const Netlist nl = small_design(17, /*flops=*/30);
    FlowParams params;
    params.stages = FlowStageMask::All;
    params.scan_chains = 2;
    const FlowResult legacy = run_flow(nl, node, params);

    FlowEngine engine;
    FlowContext ctx(nl, node, params);
    const FlowResult staged = engine.run(ctx);
    expect_same_qor(legacy, staged);
    EXPECT_GT(staged.scan_wirelength_um, 0.0);
    EXPECT_GT(staged.clock_skew_ps, 0.0);
}

TEST(FlowEngine, InputNetlistIsNeverModified) {
    const Netlist nl = small_design(3, /*flops=*/10);
    const std::size_t inst_before = nl.num_instances();
    const std::size_t nets_before = nl.num_nets();
    FlowParams params;
    params.stages = FlowStageMask::Scan | FlowStageMask::ClockTree;
    const FlowResult r = run_flow(nl, *find_node("28nm"), params);
    // Scan stitching rewires the working copy (new scan_in/scan_enable
    // nets), never the caller's input.
    EXPECT_EQ(nl.num_instances(), inst_before);
    EXPECT_EQ(nl.num_nets(), nets_before);
    ASSERT_NE(r.mapped, nullptr);
    EXPECT_GT(r.mapped->num_nets(), nets_before);
    EXPECT_GT(r.scan_wirelength_um, 0.0);
}

// ---------------------------------------------- (b) batch bit-identity

TEST(FlowEngine, BatchWithFourWorkersBitIdenticalToSerial) {
    const auto node = *find_node("28nm");
    std::vector<FlowJob> jobs;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        FlowJob job{small_design(seed, seed % 2 ? 10 : 0), node, FlowParams{}};
        job.params.seed = seed;
        job.params.stages = FlowStageMask::All;
        jobs.push_back(std::move(job));
    }
    FlowEngine engine;
    std::vector<StageTrace> serial_traces, parallel_traces;
    const auto serial = engine.run_batch(jobs, 1, &serial_traces);
    const auto parallel = engine.run_batch(jobs, 4, &parallel_traces);
    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        expect_same_qor(serial[i], parallel[i]);
        EXPECT_EQ(serial[i].design, parallel[i].design);
    }
    ASSERT_EQ(serial_traces.size(), jobs.size());
    ASSERT_EQ(parallel_traces.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_EQ(serial_traces[i].entries.size(),
                  parallel_traces[i].entries.size());
        for (std::size_t s = 0; s < serial_traces[i].entries.size(); ++s) {
            EXPECT_EQ(serial_traces[i].entries[s].stage,
                      parallel_traces[i].entries[s].stage);
            EXPECT_EQ(serial_traces[i].entries[s].skipped,
                      parallel_traces[i].entries[s].skipped);
            EXPECT_EQ(serial_traces[i].entries[s].cost_after,
                      parallel_traces[i].entries[s].cost_after);
        }
    }
}

// ------------------------------------------------ (c) skip/resume/inject

TEST(FlowEngine, RunToThenResumeMatchesSingleShot) {
    const auto node = *find_node("28nm");
    const Netlist nl = small_design(43);
    FlowParams params;
    params.seed = 43;

    FlowEngine engine;
    FlowContext oneshot(nl, node, params);
    const FlowResult whole = engine.run(oneshot);

    FlowContext staged(nl, node, params);
    const FlowResult partial = engine.run_to(staged, "legalize");
    EXPECT_EQ(staged.next_stage, engine.stage_index("legalize") + 1);
    EXPECT_TRUE(partial.legal);
    EXPECT_EQ(partial.route_wirelength, 0u);  // routing has not run yet
    // Re-running to an already-passed stage is an idempotent no-op.
    engine.run_to(staged, "place");
    EXPECT_EQ(staged.next_stage, engine.stage_index("legalize") + 1);
    const FlowResult resumed = engine.run(staged);
    expect_same_qor(whole, resumed);
}

TEST(FlowEngine, SkippedStageIsRecordedAndItsMetricsStayZero) {
    const auto node = *find_node("28nm");
    const Netlist nl = small_design(7, /*flops=*/20);
    FlowParams params;  // ClockTree enabled by default
    FlowEngine engine;
    FlowContext ctx(nl, node, params);
    ctx.skip("cts");
    const FlowResult r = engine.run(ctx);
    EXPECT_EQ(r.clock_skew_ps, 0.0);
    EXPECT_EQ(r.clock_wirelength_um, 0.0);
    bool saw_skipped_cts = false;
    for (const StageTraceEntry& e : ctx.trace.entries) {
        if (e.stage == "cts") saw_skipped_cts = e.skipped;
    }
    EXPECT_TRUE(saw_skipped_cts);
}

TEST(FlowEngine, CustomStageInjectionRunsInOrder) {
    const auto node = *find_node("28nm");
    const Netlist nl = small_design(5);
    FlowEngine engine;
    std::vector<std::string> order;
    FlowStage probe;
    probe.name = "probe";
    probe.run = [&order](FlowContext& ctx) {
        order.push_back("probe@" + std::to_string(ctx.next_stage));
        EXPECT_TRUE(ctx.placed);  // injected after place
    };
    engine.insert_stage(engine.stage_index("legalize"), probe);
    EXPECT_EQ(engine.stage_index("probe") + 1, engine.stage_index("legalize"));

    FlowContext ctx(nl, node, FlowParams{});
    engine.run(ctx);
    ASSERT_EQ(order.size(), 1u);
    // The trace saw the injected stage between place and legalize.
    std::vector<std::string> names;
    for (const auto& e : ctx.trace.entries) names.push_back(e.stage);
    const auto probe_at = std::find(names.begin(), names.end(), "probe");
    ASSERT_NE(probe_at, names.end());
    EXPECT_EQ(*(probe_at - 1), "place");
    EXPECT_EQ(*(probe_at + 1), "legalize");

    EXPECT_THROW(engine.stage_index("nonsense"), std::out_of_range);
    EXPECT_THROW(engine.insert_stage(99, probe), std::out_of_range);
}

// --------------------------------------------- (d) FlowParams::check()

TEST(FlowParams, CheckRejectsNonsense) {
    const auto bad = [](auto&& mutate) {
        FlowParams p;
        mutate(p);
        return p;
    };
    EXPECT_FALSE(bad([](FlowParams& p) { p.utilization = 0.0; }).check().empty());
    EXPECT_FALSE(bad([](FlowParams& p) { p.utilization = -0.5; }).check().empty());
    EXPECT_FALSE(bad([](FlowParams& p) { p.utilization = 1.5; }).check().empty());
    EXPECT_FALSE(bad([](FlowParams& p) { p.optimize_rounds = -1; }).check().empty());
    EXPECT_FALSE(bad([](FlowParams& p) { p.placer_iterations = 0; }).check().empty());
    EXPECT_FALSE(bad([](FlowParams& p) { p.sa_moves_per_cell = -3; }).check().empty());
    EXPECT_FALSE(bad([](FlowParams& p) { p.router_iterations = -2; }).check().empty());
    EXPECT_FALSE(bad([](FlowParams& p) { p.routing_layers = 0; }).check().empty());
    EXPECT_FALSE(bad([](FlowParams& p) {
                     p.stages = FlowStageMask::Scan;
                     p.scan_chains = 0;
                 }).check().empty());
    EXPECT_TRUE(FlowParams{}.check().empty());

    // The error message names the offending knob.
    FlowParams p;
    p.utilization = 2.0;
    EXPECT_NE(p.check().find("utilization"), std::string::npos);
}

TEST(FlowParams, EngineAndWrapperRejectInvalidParams) {
    const Netlist nl = small_design(1);
    const auto node = *find_node("28nm");
    FlowParams p;
    p.utilization = -1.0;
    EXPECT_THROW(run_flow(nl, node, p), std::invalid_argument);
    EXPECT_THROW(FlowContext(nl, node, p), std::invalid_argument);
}

TEST(FlowEngine, UnconnectedPinIsRejectedByEveryEntryPoint) {
    // One AND2 with pin 1 left at kNoNet (add_instance allows it for
    // deferred wiring). The flow must refuse it up front with
    // validate()'s diagnostic instead of running synthesis on it.
    Netlist bad(lib28(), "bad");
    const NetId a = bad.add_primary_input("a");
    const InstId g = bad.add_instance(
        "g", *lib28()->find_function(CellFunction::And2), {a, kNoNet});
    bad.add_primary_output("y", bad.instance(g).output);
    const auto node = *find_node("28nm");
    try {
        run_flow(bad, node, FlowParams{});
        ADD_FAILURE() << "run_flow accepted an unconnected pin";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("pin 1 unconnected"), std::string::npos)
            << e.what();
    }

    // In a batch the bad job fails alone; its sibling runs as if alone.
    const Netlist good = small_design(1);
    std::vector<FlowJob> jobs;
    jobs.push_back(FlowJob{bad, node, FlowParams{}});
    jobs.push_back(FlowJob{good, node, FlowParams{}});
    const auto results = FlowEngine().run_batch(std::move(jobs), 2);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].failed());
    EXPECT_NE(results[0].error.find("pin 1 unconnected"), std::string::npos)
        << results[0].error;
    EXPECT_FALSE(results[1].failed()) << results[1].error;
    expect_same_qor(results[1], run_flow(good, node, FlowParams{}));
}

TEST(FlowParams, StageMaskOperations) {
    const FlowStageMask m = FlowStageMask::Scan | FlowStageMask::Sizing;
    EXPECT_TRUE(has_stage(m, FlowStageMask::Scan));
    EXPECT_TRUE(has_stage(m, FlowStageMask::Sizing));
    EXPECT_FALSE(has_stage(m, FlowStageMask::ClockTree));
    EXPECT_TRUE(has_stage(~m, FlowStageMask::ClockTree));
    EXPECT_FALSE(has_stage(~m, FlowStageMask::Scan));
}

// ----------------------------------------------------------- StageTrace

TEST(StageTrace, RecordsEveryStageAndSerializesToJson) {
    const auto node = *find_node("28nm");
    const Netlist nl = small_design(23);
    FlowEngine engine;
    FlowContext ctx(nl, node, FlowParams{});
    engine.run(ctx);
    ASSERT_EQ(ctx.trace.entries.size(), engine.stages().size());
    EXPECT_GT(ctx.trace.total_ms, 0.0);
    EXPECT_GT(ctx.trace.peak_instances, 0u);

    // A text note alongside the engine's numeric ones, to check kinds.
    ctx.trace.entries.back().notes.push_back(
        {"label", StageNote::Kind::Text, 0, 0, "last \"stage\""});

    const std::string text = stage_trace_json(ctx.trace).dump();
    const server::JsonValue json = server::parse_json(text);
    EXPECT_EQ(json.dump(), text);
    EXPECT_EQ(json.get_int("peak_instances"),
              static_cast<std::int64_t>(ctx.trace.peak_instances));
    const auto& stages = json.at("stages").items();
    ASSERT_EQ(stages.size(), ctx.trace.entries.size());
    for (std::size_t i = 0; i < stages.size(); ++i) {
        const StageTraceEntry& e = ctx.trace.entries[i];
        EXPECT_EQ(stages[i].get_string("stage"), engine.stages()[i].name);
        EXPECT_EQ(stages[i].get_int("instances"),
                  static_cast<std::int64_t>(e.instances));
        EXPECT_EQ(stages[i].at("skipped").as_bool(), e.skipped);
        ASSERT_EQ(stages[i].find("detail") != nullptr, !e.notes.empty())
            << e.stage;
        // The typed accessors throw on a kind mismatch, so these also pin
        // that Int stays Int and Text stays a string.
        for (const StageNote& n : e.notes) {
            const server::JsonValue& v = stages[i].at("detail").at(n.key);
            if (n.kind == StageNote::Kind::Int) {
                EXPECT_EQ(v.as_int(), n.int_value) << n.key;
            } else if (n.kind == StageNote::Kind::Real) {
                EXPECT_EQ(v.as_real(), n.real_value) << n.key;
            } else {
                EXPECT_EQ(v.as_string(), n.text_value) << n.key;
            }
        }
    }
}

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPool, SubmitAndWaitIdleDrainsQueue) {
    // The destructor runs every queued task before it joins the workers.
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i) pool.submit([&] { count.fetch_add(1); });
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(Rng, MixSeedIsDeterministicAndDecorrelated) {
    EXPECT_EQ(mix_seed(1, 0), mix_seed(1, 0));
    std::set<std::uint64_t> seen;
    for (std::uint64_t s = 0; s < 100; ++s) seen.insert(mix_seed(42, s));
    EXPECT_EQ(seen.size(), 100u);  // no collisions across stream indices
    EXPECT_NE(mix_seed(1, 5), mix_seed(2, 5));
}

}  // namespace
}  // namespace janus
