#include "janus/flow/flow_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "janus/dft/scan.hpp"
#include "janus/logic/aig.hpp"
#include "janus/logic/aig_rewrite.hpp"
#include "janus/logic/sop_cache.hpp"
#include "janus/logic/tech_map.hpp"
#include "janus/place/legalize.hpp"
#include "janus/place/sa_place.hpp"
#include "janus/power/power_model.hpp"
#include "janus/route/clock_tree.hpp"
#include "janus/route/global_router.hpp"
#include "janus/server/scheduler.hpp"
#include "janus/timing/sizing.hpp"
#include "janus/timing/sta.hpp"
#include "janus/timing/timing_graph.hpp"
#include "janus/util/thread_pool.hpp"

namespace janus {
namespace {

double elapsed_ms(std::chrono::steady_clock::time_point since) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
}

bool is_sequential(const FlowContext& ctx) {
    return !ctx.netlist.sequential_instances().empty();
}

StaOptions make_sta_options(const FlowContext& ctx) {
    StaOptions opts;
    opts.wire = WireModel::for_node(ctx.node);
    opts.sta_workers = ctx.params.workers;
    return opts;
}

}  // namespace

// --------------------------------------------------------------- context

FlowContext::FlowContext(Netlist input, TechnologyNode technology,
                         FlowParams p)
    : netlist(std::move(input)), node(technology), params(p) {
    const std::string err = params.check();
    if (!err.empty()) throw std::invalid_argument("FlowParams: " + err);
    if (const auto problems = netlist.validate(); !problems.empty()) {
        throw std::invalid_argument("FlowContext: input netlist invalid: " +
                                    problems.front());
    }
    result.design = netlist.name();
    trace.design = netlist.name();
}

FlowContext::~FlowContext() = default;
FlowContext::FlowContext(FlowContext&&) noexcept = default;
FlowContext& FlowContext::operator=(FlowContext&&) noexcept = default;

void FlowContext::skip(std::string stage_name) {
    skipped_.push_back(std::move(stage_name));
}

bool FlowContext::is_skipped(std::string_view stage_name) const {
    return std::find(skipped_.begin(), skipped_.end(), stage_name) !=
           skipped_.end();
}

// ---------------------------------------------------------------- engine

FlowEngine::FlowEngine() : memo_(std::make_shared<SopCache>()) {
    const auto add = [this](std::string name,
                            std::function<bool(const FlowContext&)> applies,
                            std::function<void(FlowContext&)> run) {
        stages_.push_back(
            FlowStage{std::move(name), std::move(run), std::move(applies)});
    };

    // Sequential designs are kept structurally (register boundaries are not
    // re-synthesized in this release), so optimize/map apply only to
    // combinational netlists.
    // The stage captures the memo, not the engine, so engine copies share it.
    add("optimize",
        [](const FlowContext& ctx) { return !is_sequential(ctx); },
        [memo = memo_](FlowContext& ctx) {
            ctx.aig = std::make_unique<Aig>(Aig::from_netlist(ctx.netlist));
            RewriteOptions ropts;
            ropts.workers = ctx.params.workers;
            RewriteStats rs;
            *ctx.aig = optimize(*ctx.aig, ctx.params.optimize_rounds, ropts, &rs,
                                memo.get());
            ctx.trace.note("cuts", rs.cuts_evaluated);
            ctx.trace.note("memo_hits", rs.memo_hits);
            ctx.trace.note("memo_misses", rs.memo_misses);
            ctx.trace.note("espresso", rs.espresso_calls);
            ctx.trace.note("memo_entries", memo->size());
            ctx.trace.note("replacements", rs.replacements);
            ctx.trace.note("workers", rs.workers);
        });

    add("map",
        [](const FlowContext& ctx) { return ctx.aig != nullptr; },
        [](FlowContext& ctx) {
            TechMapOptions mopts;
            mopts.workers = ctx.params.workers;
            TechMapStats ms;
            ctx.netlist =
                tech_map(*ctx.aig, ctx.netlist.library_ptr(), mopts, &ms);
            ctx.aig.reset();
            ctx.trace.note("cuts", ms.cuts_evaluated);
            ctx.trace.note("matched", ms.matched_cuts);
            ctx.trace.note("workers", ms.workers);
        });

    // DFT insertion runs before placement so scan flops exist in the layout.
    add("scan_insert",
        [](const FlowContext& ctx) {
            return ctx.params.enabled(FlowStageMask::Scan) &&
                   is_sequential(ctx);
        },
        [](FlowContext& ctx) {
            ctx.scan = insert_scan(ctx.netlist, ctx.params.scan_chains);
        });

    add("place", nullptr, [](FlowContext& ctx) {
        ctx.area = make_placement_area(ctx.netlist, ctx.node,
                                       ctx.params.utilization);
        AnalyticPlaceOptions popts;
        popts.solver_iterations = ctx.params.placer_iterations;
        popts.seed = ctx.params.seed;
        const PlaceQuality pq = analytic_place(ctx.netlist, ctx.area, popts);
        ctx.placed = true;
        ctx.trace.note("hpwl", pq.hpwl_um);
        ctx.trace.note("rows", ctx.area.num_rows);
        ctx.trace.note("levels", pq.levels);
        ctx.trace.note("fine_iterations", pq.fine_iterations);
    });

    add("legalize", nullptr, [](FlowContext& ctx) {
        const LegalizeResult lg = legalize(ctx.netlist, ctx.area);
        ctx.result.legal = lg.success && is_legal(ctx.netlist, ctx.area);
        ctx.result.hpwl_um = total_hpwl_um(ctx.netlist, ctx.area);
        ctx.trace.note("disp_total", lg.total_displacement_um);
        ctx.trace.note("disp_max", lg.max_displacement_um);
        ctx.trace.note("success", lg.success ? 1 : 0);
    });

    // Detailed placement, promoted out of the legalize lambda into its own
    // observable stage: batch-parallel SA refinement (docs/PLACE.md) whose
    // result is byte-identical for any place-worker count.
    add("sa_refine",
        [](const FlowContext& ctx) { return ctx.params.sa_moves_per_cell > 0; },
        [](FlowContext& ctx) {
            SaPlaceOptions sopts;
            sopts.moves_per_cell = ctx.params.sa_moves_per_cell;
            sopts.seed = ctx.params.seed;
            sopts.workers = ctx.params.workers;
            const SaPlaceResult sr = sa_refine(ctx.netlist, ctx.area, sopts);
            ctx.result.legal = ctx.result.legal && is_legal(ctx.netlist, ctx.area);
            ctx.result.hpwl_um = total_hpwl_um(ctx.netlist, ctx.area);
            ctx.trace.note("moves", sr.total_moves);
            ctx.trace.note("accepted", sr.accepted_moves);
            ctx.trace.note("regions", sr.regions);
            ctx.trace.note("rounds", sr.rounds);
            ctx.trace.note("aborts", sr.commit_aborts);
            ctx.trace.note("commit_rate", sr.commit_rate());
            ctx.trace.note("moves_per_round", sr.moves_per_round());
            ctx.trace.note("workers", sopts.workers);
            ctx.trace.note("hpwl_delta", sr.final_hpwl_um - sr.initial_hpwl_um);
            ctx.trace.note("speculate_ms", sr.speculate_ms);
            ctx.trace.note("serial_ms", sr.serial_ms);
        });

    // Chains restitched in placement order now that positions exist.
    add("scan_reorder",
        [](const FlowContext& ctx) {
            return ctx.params.enabled(FlowStageMask::Scan) &&
                   !ctx.scan.chains.empty();
        },
        [](FlowContext& ctx) {
            const ReorderResult rr = reorder_scan(ctx.netlist, ctx.scan);
            ctx.result.scan_wirelength_um = rr.after_um;
        });

    add("route", nullptr, [](FlowContext& ctx) {
        // GCell grid and per-layer capacity derive from the die geometry
        // and metal pitch so congestion is physical, not arbitrary.
        GlobalRouteOptions ropts;
        ropts.max_iterations = ctx.params.router_iterations;
        ropts.routing_layers = ctx.params.routing_layers;
        ropts.gcells_x = ropts.gcells_y =
            std::max(24, static_cast<int>(ctx.area.die.width() / 3000));
        const double gcell_nm =
            static_cast<double>(ctx.area.die.width()) / ropts.gcells_x;
        ropts.capacity_per_layer = 0.65 * gcell_nm / ctx.node.metal_pitch_nm;
        ropts.route_workers = ctx.params.workers;
        const GlobalRouteResult gr = route_design(ctx.netlist, ctx.area, ropts);
        ctx.result.route_wirelength = gr.total_wirelength;
        ctx.result.route_overflow = gr.total_overflow;
        ctx.trace.note("panels", gr.panels);
        ctx.trace.note("rounds", gr.reroute_rounds);
        ctx.trace.note("aborts", gr.reroute_conflicts);
        ctx.trace.note("commit_rate", gr.commit_rate());
        ctx.trace.note("nets_per_round", gr.nets_per_round());
        ctx.trace.note("workers", ropts.route_workers);
    });

    add("cts",
        [](const FlowContext& ctx) {
            return ctx.params.enabled(FlowStageMask::ClockTree) &&
                   is_sequential(ctx);
        },
        [](FlowContext& ctx) {
            const ClockTree ct = build_clock_tree(ctx.netlist);
            ctx.result.clock_skew_ps = ct.skew_ps();
            ctx.result.clock_wirelength_um = ct.total_wirelength_um;
        });

    add("sizing",
        [](const FlowContext& ctx) {
            return ctx.params.enabled(FlowStageMask::Sizing);
        },
        [](FlowContext& ctx) {
            SizingOptions sopts;
            sopts.sta = make_sta_options(ctx);
            const SizingResult sr = size_for_timing(ctx.netlist, sopts);
            ctx.result.cells_resized = sr.cells_resized;
            ctx.trace.note("passes", sr.passes);
            ctx.trace.note("resized", sr.cells_resized);
            ctx.trace.note("evals", sr.timing_evals);
        });

    add("sta", nullptr, [](FlowContext& ctx) {
        const StaOptions sopts = make_sta_options(ctx);
        TimingGraph tg(ctx.netlist, sopts);
        tg.analyze();
        const TimingReport tr = tg.report();
        ctx.result.critical_delay_ps = tr.critical_delay_ps;
        ctx.result.wns_ps = tr.wns_ps;
        ctx.trace.note("levels", tg.num_levels());
        ctx.trace.note("endpoints", tg.endpoints().size());
        ctx.trace.note("workers", sopts.sta_workers);
    });

    add("power", nullptr, [](FlowContext& ctx) {
        PowerOptions popts;
        popts.wire = make_sta_options(ctx).wire;
        const PowerReport pr = estimate_power(ctx.netlist, ctx.node, popts);
        ctx.result.total_power_mw = pr.total_mw();
    });
}

std::size_t FlowEngine::stage_index(std::string_view name) const {
    for (std::size_t i = 0; i < stages_.size(); ++i) {
        if (stages_[i].name == name) return i;
    }
    throw std::out_of_range("FlowEngine: unknown stage '" + std::string(name) +
                            "'");
}

void FlowEngine::insert_stage(std::size_t pos, FlowStage stage) {
    if (pos > stages_.size()) {
        throw std::out_of_range("FlowEngine: insert position past the end");
    }
    stages_.insert(stages_.begin() + static_cast<std::ptrdiff_t>(pos),
                   std::move(stage));
}

FlowResult FlowEngine::run_until(FlowContext& ctx, std::size_t end_stage) const {
    const auto t0 = std::chrono::steady_clock::now();
    // Size/area fields are refreshed at every stage boundary (not just at
    // the end) so the traced cost deltas see what map/scan/sizing did to
    // the design, and resumed runs trace identically to single-shot ones.
    const auto refresh_size = [&ctx] {
        ctx.result.instances = ctx.netlist.num_instances();
        ctx.result.area_um2 = ctx.netlist.total_area();
    };
    for (; ctx.next_stage < end_stage; ++ctx.next_stage) {
        const FlowStage& stage = stages_[ctx.next_stage];
        StageTraceEntry entry;
        entry.stage = stage.name;
        refresh_size();
        entry.cost_before = ctx.result.cost();
        const bool applicable = !stage.applies || stage.applies(ctx);
        if (!applicable || ctx.is_skipped(stage.name)) {
            entry.skipped = true;
            entry.instances = ctx.result.instances;
            entry.cost_after = entry.cost_before;
            ctx.trace.add(std::move(entry));
            continue;
        }
        ctx.trace.take_pending_notes();  // drop any stale notes defensively
        const auto s0 = std::chrono::steady_clock::now();
        stage.run(ctx);
        entry.wall_ms = elapsed_ms(s0);
        entry.notes = ctx.trace.take_pending_notes();
        refresh_size();
        entry.instances = ctx.result.instances;
        entry.cost_after = ctx.result.cost();
        ctx.trace.add(std::move(entry));
    }

    // Finalize the QoR record for whatever has run so far; resumed runs
    // accumulate wall time across calls.
    ctx.result.instances = ctx.netlist.num_instances();
    ctx.result.area_um2 = ctx.netlist.total_area();
    ctx.result.runtime_ms += elapsed_ms(t0);
    return ctx.result;
}

FlowResult FlowEngine::run(FlowContext& ctx) const {
    run_until(ctx, stages_.size());
    // The context stays inspectable after a full run, so the implemented
    // netlist is copied (run_batch moves instead — contexts there are
    // engine-internal).
    if (!ctx.result.mapped) {
        ctx.result.mapped = std::make_shared<Netlist>(ctx.netlist);
    }
    return ctx.result;
}

FlowResult FlowEngine::run_to(FlowContext& ctx, std::string_view last_stage) const {
    const std::size_t last = stage_index(last_stage);
    // Running to a stage the context has already passed is a no-op (the
    // record is just re-finalized), which lets resume loops be idempotent.
    return run_until(ctx, std::max(last + 1, ctx.next_stage));
}

std::vector<FlowResult> FlowEngine::run_batch(
    std::vector<FlowJob> jobs, int workers,
    std::vector<StageTrace>* traces) const {
    // Jobs are independent by construction (each context owns its netlist;
    // stages seed their own RNGs from params; the shared memo only returns
    // pure covers), so results indexed by job are bit-identical whatever
    // the worker count or admission order.
    FlowScheduler scheduler(*this, workers);
    std::vector<JobHandle> handles;
    handles.reserve(jobs.size());
    for (FlowJob& job : jobs) handles.push_back(scheduler.submit(std::move(job)));

    std::vector<FlowResult> results;
    std::vector<StageTrace> local_traces;
    results.reserve(jobs.size());
    local_traces.reserve(jobs.size());
    for (JobHandle& handle : handles) {
        results.push_back(handle.wait());
        local_traces.push_back(handle.trace());
    }
    if (traces) *traces = std::move(local_traces);
    return results;
}

}  // namespace janus
