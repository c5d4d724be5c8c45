// TimingGraph suite: the incremental/parallel timing engine must be
// indistinguishable — byte for byte — from the historical single-shot STA.
// Builds as its own binary (like flow_engine_test / route_parallel_test) so
// `ctest -R TimingGraph` under -DJANUS_TSAN=ON race-checks the parallel
// level sweeps and their worker-count bit-identity contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "janus/flow/flow.hpp"
#include "janus/netlist/generator.hpp"
#include "janus/timing/corners.hpp"
#include "janus/timing/sizing.hpp"
#include "janus/timing/sta.hpp"
#include "janus/timing/timing_graph.hpp"
#include "janus/util/rng.hpp"

namespace janus {
namespace {

std::shared_ptr<const CellLibrary> lib28() {
    static const auto lib = std::make_shared<const CellLibrary>(
        make_default_library(*find_node("28nm")));
    return lib;
}

// The pre-TimingGraph run_sta() returned its per-net arrays inside the
// report; the reference keeps them beside the summary.
struct ReferenceTiming {
    std::vector<double> arrival;
    std::vector<double> required;
    std::vector<double> slack;
    TimingReport summary;
};

// Verbatim copy of the pre-TimingGraph run_sta() implementation, apart
// from where the arrays live. The engine must reproduce every array
// (TimingGraph::arrivals() / requireds() / slacks()) and every summary
// scalar (run_sta(), TimingGraph::report()) of this reference bit for bit.
ReferenceTiming reference_sta(const Netlist& nl, const StaOptions& opts = {}) {
    ReferenceTiming ref;
    TimingReport& r = ref.summary;
    const std::size_t nn = nl.num_nets();
    ref.arrival.assign(nn, 0.0);
    ref.required.assign(nn, std::numeric_limits<double>::infinity());
    ref.slack.assign(nn, 0.0);

    for (const NetId pi : nl.primary_inputs()) ref.arrival[pi] = 0.0;
    for (const InstId f : nl.sequential_instances()) {
        ref.arrival[nl.instance(f).output] = opts.clk_to_q_ps;
    }

    const auto& order = nl.topological_order();
    std::vector<double> gate_delay(nl.num_instances(), 0.0);
    for (const InstId i : order) {
        gate_delay[i] = instance_delay_ps(nl, i, opts.wire);
        const Instance& inst = nl.instance(i);
        double in_arrival = 0.0;
        const int arity = function_arity(nl.type_of(i).function);
        for (int p = 0; p < arity; ++p) {
            in_arrival = std::max(in_arrival,
                                  ref.arrival[inst.fanin[static_cast<std::size_t>(p)]]);
        }
        ref.arrival[inst.output] = in_arrival + gate_delay[i];
    }

    const auto constrain = [&](NetId net, double req) {
        ref.required[net] = std::min(ref.required[net], req);
    };
    for (const auto& [name, net] : nl.primary_outputs()) {
        (void)name;
        constrain(net, opts.clock_period_ps);
    }
    for (const InstId f : nl.sequential_instances()) {
        const Instance& inst = nl.instance(f);
        const int arity = function_arity(nl.type_of(f).function);
        for (int p = 0; p < arity; ++p) {
            constrain(inst.fanin[static_cast<std::size_t>(p)],
                      opts.clock_period_ps - opts.setup_ps);
        }
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const Instance& inst = nl.instance(*it);
        const double req_in = ref.required[inst.output] - gate_delay[*it];
        const int arity = function_arity(nl.type_of(*it).function);
        for (int p = 0; p < arity; ++p) {
            constrain(inst.fanin[static_cast<std::size_t>(p)], req_in);
        }
    }

    double worst = std::numeric_limits<double>::infinity();
    double critical = 0.0;
    NetId worst_net = kNoNet;
    for (NetId n = 0; n < nn; ++n) {
        if (std::isinf(ref.required[n])) {
            ref.slack[n] = std::numeric_limits<double>::infinity();
            continue;
        }
        ref.slack[n] = ref.required[n] - ref.arrival[n];
    }
    const auto endpoint_slack = [&](NetId net, double req) {
        const double s = req - ref.arrival[net];
        if (s < 0) r.tns_ps += s;
        if (s < worst) {
            worst = s;
            worst_net = net;
        }
        critical = std::max(critical, ref.arrival[net]);
    };
    for (const auto& [name, net] : nl.primary_outputs()) {
        (void)name;
        endpoint_slack(net, opts.clock_period_ps);
    }
    for (const InstId f : nl.sequential_instances()) {
        const Instance& inst = nl.instance(f);
        const int arity = function_arity(nl.type_of(f).function);
        for (int p = 0; p < arity; ++p) {
            endpoint_slack(inst.fanin[static_cast<std::size_t>(p)],
                           opts.clock_period_ps - opts.setup_ps);
        }
    }
    r.wns_ps = std::isfinite(worst) ? worst : 0.0;
    r.worst_endpoint = worst_net;
    r.critical_delay_ps = critical;
    r.fmax_ghz = critical > 0 ? 1000.0 / critical : 0.0;

    {
        std::vector<double> min_arrival(nn, 0.0);
        for (const NetId pi : nl.primary_inputs()) min_arrival[pi] = 0.0;
        for (const InstId f : nl.sequential_instances()) {
            min_arrival[nl.instance(f).output] = opts.clk_to_q_ps;
        }
        for (const InstId i : order) {
            const Instance& inst = nl.instance(i);
            double in_arrival = std::numeric_limits<double>::infinity();
            const int arity = function_arity(nl.type_of(i).function);
            for (int p = 0; p < arity; ++p) {
                in_arrival = std::min(
                    in_arrival, min_arrival[inst.fanin[static_cast<std::size_t>(p)]]);
            }
            if (arity == 0) in_arrival = 0.0;
            min_arrival[inst.output] = in_arrival + gate_delay[i];
        }
        r.hold_wns_ps = std::numeric_limits<double>::infinity();
        for (const InstId f : nl.sequential_instances()) {
            const NetId d = nl.instance(f).fanin[0];
            if (d == kNoNet) continue;
            const double slack = min_arrival[d] - opts.hold_ps;
            if (slack < 0) ++r.hold_violations;
            r.hold_wns_ps = std::min(r.hold_wns_ps, slack);
        }
        if (!std::isfinite(r.hold_wns_ps)) r.hold_wns_ps = 0.0;
    }

    NetId cursor = kNoNet;
    double best_arr = -1.0;
    const auto consider = [&](NetId net) {
        if (ref.arrival[net] > best_arr) {
            best_arr = ref.arrival[net];
            cursor = net;
        }
    };
    for (const auto& [name, net] : nl.primary_outputs()) {
        (void)name;
        consider(net);
    }
    for (const InstId f : nl.sequential_instances()) {
        const Instance& inst = nl.instance(f);
        const int arity = function_arity(nl.type_of(f).function);
        for (int p = 0; p < arity; ++p) {
            consider(inst.fanin[static_cast<std::size_t>(p)]);
        }
    }
    while (cursor != kNoNet) {
        const Net& net = nl.net(cursor);
        if (net.driver_kind != DriverKind::Instance) break;
        const InstId d = net.driver_inst;
        if (is_sequential(nl.type_of(d).function)) break;
        r.critical_path.push_back(d);
        const Instance& inst = nl.instance(d);
        const int arity = function_arity(nl.type_of(d).function);
        NetId next = kNoNet;
        double arr = -1.0;
        for (int p = 0; p < arity; ++p) {
            const NetId f = inst.fanin[static_cast<std::size_t>(p)];
            if (ref.arrival[f] > arr) {
                arr = ref.arrival[f];
                next = f;
            }
        }
        cursor = next;
    }
    std::reverse(r.critical_path.begin(), r.critical_path.end());
    return ref;
}

// Bitwise equality for double arrays (inf-safe, -0 vs +0 sensitive).
void expect_bits_equal(const std::vector<double>& a, const std::vector<double>& b,
                       const std::string& what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(0, std::memcmp(&a[i], &b[i], sizeof(double)))
            << what << " differs at index " << i << ": " << a[i] << " vs " << b[i];
    }
}

void expect_summaries_identical(const TimingReport& a, const TimingReport& b) {
    expect_bits_equal({a.wns_ps, a.tns_ps, a.hold_wns_ps, a.critical_delay_ps,
                       a.fmax_ghz},
                      {b.wns_ps, b.tns_ps, b.hold_wns_ps, b.critical_delay_ps,
                       b.fmax_ghz},
                      "summary scalars");
    EXPECT_EQ(a.hold_violations, b.hold_violations);
    EXPECT_EQ(a.worst_endpoint, b.worst_endpoint);
    EXPECT_EQ(a.critical_path, b.critical_path);
}

// Every array of an analyzed graph and every scalar of its summary equal
// the reference's.
void expect_graph_matches_reference(const TimingGraph& tg,
                                    const ReferenceTiming& ref) {
    expect_bits_equal(tg.arrivals(), ref.arrival, "arrival");
    expect_bits_equal(tg.requireds(), ref.required, "required");
    expect_bits_equal(tg.slacks(), ref.slack, "slack");
    expect_summaries_identical(tg.report(), ref.summary);
}

// run_sta()'s summary and a graph's arrays, both against the reference.
void expect_matches_reference(const Netlist& nl, const StaOptions& opts) {
    const ReferenceTiming ref = reference_sta(nl, opts);
    expect_summaries_identical(run_sta(nl, opts), ref.summary);
    TimingGraph tg(nl, opts);
    tg.analyze();
    expect_graph_matches_reference(tg, ref);
}

std::vector<Netlist> corpus() {
    std::vector<Netlist> designs;
    designs.push_back(generate_adder(lib28(), 16));
    designs.push_back(generate_parity(lib28(), 32));
    designs.push_back(generate_counter(lib28(), 12));
    designs.push_back(generate_mesh(lib28(), 1500, 3, 2));
    GeneratorConfig cfg;
    cfg.num_gates = 1200;
    cfg.num_flops = 40;
    cfg.seed = 11;
    designs.push_back(generate_random(lib28(), cfg));
    return designs;
}

// --------------------------------------------------- wrapper equivalence

TEST(TimingGraph, RunStaMatchesReferenceByteForByte) {
    for (const Netlist& nl : corpus()) {
        SCOPED_TRACE(nl.name());
        expect_matches_reference(nl, {});
    }
}

TEST(TimingGraph, NonDefaultConstraintsStillMatchReference) {
    StaOptions opts;
    opts.clock_period_ps = 180.0;
    opts.clk_to_q_ps = 35.0;
    opts.setup_ps = 22.0;
    opts.hold_ps = 11.0;
    for (const Netlist& nl : corpus()) {
        SCOPED_TRACE(nl.name());
        expect_matches_reference(nl, opts);
    }
}

// ------------------------------------------------- parallel determinism

TEST(TimingGraph, WorkerCountIsBitInvariant) {
    // Wide shallow random logic so the level sweeps actually split across
    // the team (a level of at most kParallelGrain instances runs inline).
    GeneratorConfig cfg;
    cfg.num_gates = 40000;
    cfg.num_inputs = 256;
    cfg.num_flops = 200;
    cfg.locality = 0.0;
    cfg.seed = 5;
    const Netlist nl = generate_random(lib28(), cfg);

    TimingGraph serial(nl);
    serial.analyze();
    // Guard: the widest level must span several sweep blocks, otherwise
    // this test would pass vacuously through the inline path.
    ASSERT_GT(serial.max_level_width(), 2 * TimingGraph::kParallelGrain)
        << "test design too narrow to engage the team";

    for (const int workers : {2, 4, 8}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        StaOptions opts;
        opts.sta_workers = workers;
        TimingGraph par(nl, opts);
        par.analyze();
        expect_bits_equal(serial.arrivals(), par.arrivals(), "arrival");
        expect_bits_equal(serial.requireds(), par.requireds(), "required");
        expect_bits_equal(serial.slacks(), par.slacks(), "slack");
        expect_summaries_identical(serial.report(), par.report());
    }
}

// ------------------------------------------------ incremental updates

// Applies `steps` random resize/undo events and checks after every
// update() that the incrementally maintained arrays match a from-scratch
// analysis bit for bit.
void run_resize_fuzz(std::size_t gates, std::uint64_t seed, int steps) {
    Netlist nl = generate_mesh(lib28(), gates, seed, 2);
    const CellLibrary& lib = nl.library();
    TimingGraph tg(nl);
    tg.analyze();

    Rng rng(mix_seed(seed, gates));
    std::vector<std::pair<InstId, std::size_t>> history;
    for (int step = 0; step < steps; ++step) {
        const bool undo = !history.empty() && rng.next_bool(0.3);
        if (undo) {
            const auto [inst, type] = history.back();
            history.pop_back();
            nl.instance(inst).type = type;
            tg.resize(inst);
        } else {
            const InstId i =
                static_cast<InstId>(rng.pick_index(nl.num_instances()));
            if (is_sequential(nl.type_of(i).function)) continue;
            const auto variants = lib.variants(nl.type_of(i).function);
            const std::size_t pick = variants[rng.pick_index(variants.size())];
            if (pick == nl.instance(i).type) continue;
            history.emplace_back(i, nl.instance(i).type);
            nl.instance(i).type = pick;
            tg.resize(i);
        }
        const TimingUpdateStats st = tg.update();
        EXPECT_GT(st.instances_reevaluated(), 0u);

        TimingGraph fresh(nl);
        fresh.analyze();
        SCOPED_TRACE("step " + std::to_string(step));
        expect_bits_equal(fresh.arrivals(), tg.arrivals(), "arrival");
        expect_bits_equal(fresh.requireds(), tg.requireds(), "required");
        expect_bits_equal(fresh.slacks(), tg.slacks(), "slack");
        expect_summaries_identical(fresh.report(), tg.report());
    }
}

TEST(TimingGraph, IncrementalMatchesFullRebuildSeed7) {
    for (const std::size_t gates : {600u, 2400u, 6000u}) {
        run_resize_fuzz(gates, 7, 25);
    }
}

TEST(TimingGraph, IncrementalMatchesFullRebuildSeed21) {
    for (const std::size_t gates : {600u, 2400u, 6000u}) {
        run_resize_fuzz(gates, 21, 25);
    }
}

TEST(TimingGraph, SingleResizeTouchesSmallCone) {
    Netlist nl = generate_mesh(lib28(), 6000, 9, 0);
    TimingGraph tg(nl);
    tg.analyze();
    // Resize one mid-design instance: the re-evaluated cone must be a small
    // fraction of what two full sweeps (old run_sta per query) would cost.
    const InstId victim = static_cast<InstId>(nl.num_instances() / 2);
    ASSERT_FALSE(is_sequential(nl.type_of(victim).function));
    const auto variants = nl.library().variants(nl.type_of(victim).function);
    ASSERT_GT(variants.size(), 1u);
    for (const std::size_t v : variants) {
        if (v != nl.instance(victim).type) {
            nl.instance(victim).type = v;
            break;
        }
    }
    tg.resize(victim);
    const TimingUpdateStats st = tg.update();
    EXPECT_GT(st.instances_reevaluated(), 0u);
    EXPECT_LT(st.instances_reevaluated(), nl.num_instances() / 4);
    EXPECT_GT(st.levels_touched, 0u);
}

TEST(TimingGraph, NoopUpdateDoesNothing) {
    const Netlist nl = generate_adder(lib28(), 8);
    TimingGraph tg(nl);
    tg.analyze();
    const TimingUpdateStats st = tg.update();
    EXPECT_EQ(st.instances_reevaluated(), 0u);
    EXPECT_EQ(st.delays_recomputed, 0u);
    EXPECT_EQ(st.levels_touched, 0u);
}

TEST(TimingGraph, UpdateBeforeAnalyzeThrows) {
    const Netlist nl = generate_adder(lib28(), 4);
    TimingGraph tg(nl);
    tg.mark_dirty(0);
    EXPECT_THROW(tg.update(), std::logic_error);
    EXPECT_THROW(tg.report(), std::logic_error);
}

TEST(TimingGraph, StructuralMutationInvalidatesGraph) {
    Netlist nl = generate_adder(lib28(), 4);
    TimingGraph tg(nl);
    tg.analyze();
    nl.add_net("late_net");  // structural change bumps the epoch
    EXPECT_THROW(tg.analyze(), std::logic_error);
    EXPECT_THROW(tg.update(), std::logic_error);
    // A rebuilt graph picks the new structure up fine.
    TimingGraph fresh(nl);
    fresh.analyze();
    expect_graph_matches_reference(fresh, reference_sta(nl));
}

TEST(TimingGraph, InPlaceResizeDoesNotBumpEpoch) {
    Netlist nl = generate_adder(lib28(), 4);
    const std::uint64_t before = nl.mutation_epoch();
    nl.instance(0).type = nl.instance(0).type;
    EXPECT_EQ(nl.mutation_epoch(), before);
    nl.add_net("x");
    EXPECT_GT(nl.mutation_epoch(), before);
}

// ------------------------------------------------------- worst endpoint

TEST(TimingGraph, WorstEndpointMatchesCriticalPathTail) {
    // Combinational designs: every endpoint shares the same required time,
    // so the worst-slack endpoint is exactly the maximal-arrival endpoint
    // the critical-path walk starts from.
    for (const auto& nl :
         {generate_adder(lib28(), 16), generate_parity(lib28(), 32),
          generate_mesh(lib28(), 1500, 3, 0)}) {
        SCOPED_TRACE(nl.name());
        const TimingReport r = run_sta(nl);
        ASSERT_NE(r.worst_endpoint, kNoNet);
        ASSERT_FALSE(r.critical_path.empty());
        EXPECT_EQ(r.worst_endpoint,
                  nl.instance(r.critical_path.back()).output);
        const std::string txt = format_timing_report(nl, r);
        EXPECT_NE(txt.find("worst endpoint"), std::string::npos);
        EXPECT_NE(txt.find(nl.net_name(r.worst_endpoint)), std::string::npos);
    }
}

// ------------------------------------------------------- corner slacks

TEST(TimingGraph, CornerWnsTnsAreRealEndpointSlacks) {
    const Netlist nl = generate_counter(lib28(), 16);
    StaOptions base;
    base.clock_period_ps = 1.05 * run_sta(nl, base).critical_delay_ps;
    const TimingReport nominal = run_sta(nl, base);
    TimingGraph tg(nl, base);
    tg.analyze();
    const auto endpoints = timing_endpoints(nl, base);
    const MultiCornerReport mc = run_multi_corner(nl, base);
    ASSERT_EQ(mc.reports.size(), 3u);
    const std::vector<double> derates = {1.30, 1.00, 0.72};
    for (std::size_t c = 0; c < mc.reports.size(); ++c) {
        SCOPED_TRACE("corner " + std::to_string(c));
        double wns = std::numeric_limits<double>::infinity();
        double tns = 0.0;
        for (const TimingEndpoint& e : endpoints) {
            const double s = e.required_ps - derates[c] * tg.arrivals()[e.net];
            if (s < 0) tns += s;
            wns = std::min(wns, s);
        }
        EXPECT_DOUBLE_EQ(mc.reports[c].wns_ps, wns);
        EXPECT_DOUBLE_EQ(mc.reports[c].tns_ps, tns);
        EXPECT_NE(mc.reports[c].worst_endpoint, kNoNet);
    }
    // The unit-derate corner must agree exactly with nominal STA.
    EXPECT_EQ(mc.reports[1].wns_ps, nominal.wns_ps);
    EXPECT_EQ(mc.reports[1].tns_ps, nominal.tns_ps);
    EXPECT_EQ(mc.reports[1].worst_endpoint, nominal.worst_endpoint);
}

// ------------------------------------------------------- sizing parity

// The pre-TimingGraph sizing loop, verbatim, driven by the reference STA:
// the incremental loop must make identical decisions and land on identical
// QoR (delay and area bit for bit).
SizingResult legacy_size_for_timing(Netlist& nl, const SizingOptions& opts) {
    SizingResult res;
    const CellLibrary& lib = nl.library();
    TimingReport tr = reference_sta(nl, opts.sta).summary;
    res.wns_before_ps = tr.wns_ps;
    res.delay_before_ps = tr.critical_delay_ps;
    res.area_before_um2 = nl.total_area();
    for (int pass = 0; pass < kMaxSizingPasses; ++pass) {
        if (tr.met()) break;
        ++res.passes;
        std::vector<std::pair<InstId, std::size_t>> undo;
        int resized = 0;
        for (const InstId i : tr.critical_path) {
            const CellType& cur = nl.type_of(i);
            std::size_t next = nl.instance(i).type;
            for (const std::size_t v : lib.variants(cur.function)) {
                if (lib.cell(v).drive > cur.drive) {
                    next = v;
                    break;
                }
            }
            if (next == nl.instance(i).type) continue;
            undo.emplace_back(i, nl.instance(i).type);
            nl.instance(i).type = next;
            ++resized;
        }
        if (resized == 0) break;
        const TimingReport after = reference_sta(nl, opts.sta).summary;
        if (after.critical_delay_ps < tr.critical_delay_ps) {
            tr = after;
            res.cells_resized += resized;
        } else {
            for (const auto& [inst, type] : undo) nl.instance(inst).type = type;
            break;
        }
    }
    res.wns_after_ps = tr.wns_ps;
    res.delay_after_ps = tr.critical_delay_ps;
    res.area_after_um2 = nl.total_area();
    return res;
}

TEST(TimingGraph, IncrementalSizingMatchesLegacyQoR) {
    for (const std::size_t gates : {1200u, 4000u}) {
        Netlist a = generate_mesh(lib28(), gates, 17, 1);
        Netlist b = generate_mesh(lib28(), gates, 17, 1);
        SizingOptions opts;
        // A tight clock so the loop actually runs several passes.
        opts.sta.clock_period_ps = 0.6 * run_sta(a).critical_delay_ps;
        const SizingResult legacy = legacy_size_for_timing(a, opts);
        const SizingResult incr = size_for_timing(b, opts);
        SCOPED_TRACE("gates=" + std::to_string(gates));
        EXPECT_EQ(legacy.passes, incr.passes);
        EXPECT_EQ(legacy.cells_resized, incr.cells_resized);
        expect_bits_equal(
            {legacy.wns_before_ps, legacy.wns_after_ps, legacy.delay_before_ps,
             legacy.delay_after_ps, legacy.area_before_um2, legacy.area_after_um2},
            {incr.wns_before_ps, incr.wns_after_ps, incr.delay_before_ps,
             incr.delay_after_ps, incr.area_before_um2, incr.area_after_um2},
            "sizing QoR");
        // Per-instance final types must agree too.
        for (InstId i = 0; i < a.num_instances(); ++i) {
            ASSERT_EQ(a.instance(i).type, b.instance(i).type) << "inst " << i;
        }
        // Accepted-pass area deltas must reconcile with the net area change.
        double delta = 0.0;
        for (const double d : incr.area_delta_per_pass) delta += d;
        EXPECT_NEAR(delta, incr.area_after_um2 - incr.area_before_um2, 1e-9);
        // One recorded delta per accepted pass; a trailing rolled-back pass
        // contributes none.
        EXPECT_LE(incr.area_delta_per_pass.size(),
                  static_cast<std::size_t>(incr.passes));
        if (incr.cells_resized > 0) {
            EXPECT_GE(incr.area_delta_per_pass.size(), 1u);
        }
    }
}

TEST(TimingGraph, FlowParamsValidateStaWorkers) {
    // check() is const: validating never rewrites the knobs it reads.
    FlowParams p;
    p.workers = -1;
    const FlowParams& view = p;
    EXPECT_NE(view.check().find("workers"), std::string::npos);
    EXPECT_EQ(p.workers, -1);
    p.workers = 4;
    EXPECT_TRUE(view.check().empty());
}

}  // namespace
}  // namespace janus
