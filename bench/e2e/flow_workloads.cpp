/// The four batch workloads: flat_mesh, synth_random, corpus_batch and
/// hier_mesh. Each is a closed loop: one operation at a time (a flow job, a
/// 56-cell scenario batch, a hierarchical flow), the next issued when the
/// previous one returns. Inputs reach the program only as .jnl text or as
/// the committed corpus files, the way a user loads designs.

#include <cstdio>
#include <filesystem>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "janus/flow/flow_engine.hpp"
#include "janus/flow/hier.hpp"
#include "janus/logic/equivalence.hpp"
#include "janus/netlist/generator.hpp"
#include "janus/netlist/io.hpp"
#include "janus/scenario/scenario.hpp"
#include "janus/timing/corners.hpp"
#include "janus/timing/sta.hpp"
#include "janus/util/rng.hpp"

namespace janus::e2e {
namespace {

const TechnologyNode& node28() {
    static const TechnologyNode node = *find_node("28nm");
    return node;
}

StaOptions sta_options() {
    StaOptions sta;
    sta.wire = WireModel::for_node(node28());
    return sta;
}

/// Flow stage -> span name "<layer>.<what>" (layers are src/janus modules).
std::string stage_span(const std::string& stage) {
    static const std::map<std::string, std::string> kSpans = {
        {"optimize", "logic.optimize"}, {"map", "logic.map"},
        {"place", "place.global"},      {"legalize", "place.legalize"},
        {"sa_refine", "place.sa_refine"}, {"route", "route.route"},
        {"cts", "route.cts"},           {"sizing", "timing.sizing"},
        {"sta", "timing.sta"},          {"power", "power.power"},
    };
    const auto it = kSpans.find(stage);
    return it != kSpans.end() ? it->second : "flow." + stage;
}

/// QoR of one run as text, every digit kept: two runs of one design must
/// produce the same string.
std::string qor_key(const FlowResult& r) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%zu %.17g %.17g %zu %.17g %.17g %.17g %.17g %d %d",
                  r.instances, r.area_um2, r.hpwl_um, r.route_wirelength,
                  r.route_overflow, r.critical_delay_ps, r.wns_ps,
                  r.total_power_mw, r.cells_resized, r.legal ? 1 : 0);
    return buf;
}

/// Stage counters read from StageTrace notes, summed over the flow jobs of
/// the traced phase and reported as per-job means or ratios.
struct StageCounters {
    double jobs = 0;
    std::map<std::string, double> stage_s;  // span name -> seconds
    double opt_cuts = 0, memo_hits = 0, memo_misses = 0, espresso = 0;
    double map_cuts = 0, map_matched = 0;
    double sa_moves = 0, sa_accepted = 0, sa_aborts = 0, sa_commit = 0, sa_runs = 0;
    double rt_rounds = 0, rt_aborts = 0, rt_commit = 0, rt_npr = 0, rt_runs = 0;
    double overflow = 0, route_wl = 0, hpwl = 0, sizing_evals = 0;

    /// `stage_times`: take stage seconds from the engine's own wall_ms
    /// (used where the benchmark cannot open spans around the stages).
    void add(const StageTrace& trace, const FlowResult& r, bool stage_times) {
        jobs += 1;
        overflow += r.route_overflow;
        route_wl += static_cast<double>(r.route_wirelength);
        hpwl += r.hpwl_um;
        for (const StageTraceEntry& e : trace.entries) {
            if (e.skipped) continue;
            if (stage_times) stage_s[stage_span(e.stage)] += e.wall_ms / 1000.0;
            if (e.stage == "optimize") {
                opt_cuts += e.note_real("cuts");
                memo_hits += e.note_real("memo_hits");
                memo_misses += e.note_real("memo_misses");
                espresso += e.note_real("espresso");
            } else if (e.stage == "map") {
                map_cuts += e.note_real("cuts");
                map_matched += e.note_real("matched");
            } else if (e.stage == "sa_refine") {
                sa_moves += e.note_real("moves");
                sa_accepted += e.note_real("accepted");
                sa_aborts += e.note_real("aborts");
                sa_commit += e.note_real("commit_rate");
                sa_runs += 1;
            } else if (e.stage == "route") {
                rt_rounds += e.note_real("rounds");
                rt_aborts += e.note_real("aborts");
                rt_commit += e.note_real("commit_rate");
                rt_npr += e.note_real("nets_per_round");
                rt_runs += 1;
            } else if (e.stage == "sizing") {
                sizing_evals += e.note_real("evals");
            }
        }
    }

    void report(Report& rep) const {
        const auto per_job = [&](double v) { return jobs > 0 ? v / jobs : 0.0; };
        const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
        for (const auto& [span, s] : stage_s) rep.set(span + "_s", per_job(s));
        rep.set("logic.cuts", per_job(opt_cuts));
        rep.set("logic.espresso_calls", per_job(espresso));
        rep.set("logic.memo_hit_rate", ratio(memo_hits, memo_hits + memo_misses));
        rep.set("logic.map_match_rate", ratio(map_matched, map_cuts));
        rep.set("place.sa_accept_rate", ratio(sa_accepted, sa_moves));
        rep.set("place.sa_commit_rate", ratio(sa_commit, sa_runs));
        rep.set("place.sa_aborts", per_job(sa_aborts));
        rep.set("place.hpwl_um", per_job(hpwl));
        rep.set("route.rounds", per_job(rt_rounds));
        rep.set("route.aborts", per_job(rt_aborts));
        rep.set("route.commit_rate", ratio(rt_commit, rt_runs));
        rep.set("route.nets_per_round", ratio(rt_npr, rt_runs));
        rep.set("route.overflow", per_job(overflow));
        rep.set("route.wirelength", per_job(route_wl));
        rep.set("timing.sizing_evals", per_job(sizing_evals));
    }
};

/// Set-up of the text-fed workloads: parse every input repeatedly (each
/// parse a netlist.read span) and report the median as setup_s. Returns
/// the last parse.
std::vector<Netlist> set_up(const std::vector<std::string>& texts, Report& report,
                            Tracer& tracer) {
    const auto lib = make_lib();
    std::vector<double> times;
    std::vector<Netlist> designs;
    double bytes = 0;
    for (const std::string& t : texts) bytes += static_cast<double>(t.size());
    const auto start = Clock::now();
    while (!setup_done(times.size(), seconds_since(start))) {
        designs.clear();
        const auto t0 = Clock::now();
        for (const std::string& text : texts) {
            Tracer::Scope span(tracer, "netlist.read", -1);
            designs.push_back(netlist_from_string(text, lib));
        }
        times.push_back(seconds_since(t0));
    }
    const double read_s = median(times);
    report.set("setup_s", read_s);
    report.set("netlist.read_s", read_s);
    report.set("netlist.read_mb_per_s", bytes / 1e6 / read_s);
    return designs;
}

/// Closed-loop flow jobs over a fixed design list (flat_mesh, synth_random):
/// one job at a time, designs in round-robin order.
class FlowJobLoop {
  public:
    /// Called once per design, after its first successful job: the
    /// workload's correctness checks and QoR recording.
    using FirstRun = std::function<void(std::size_t design, const Netlist& input,
                                        const FlowContext& ctx)>;

    FlowJobLoop(const std::vector<Netlist>& designs, FlowParams params,
                std::string last_stage, Report& report, Tracer& tracer,
                FirstRun first_run)
        : designs_(designs),
          params_(std::move(params)),
          last_stage_(std::move(last_stage)),
          report_(report),
          tracer_(tracer),
          first_run_(std::move(first_run)),
          first_qor_(designs.size()) {
        const std::size_t last = engine_.stage_index(last_stage_);
        for (std::size_t i = 0; i <= last; ++i) {
            stages_.push_back(engine_.stages()[i].name);
        }
    }

    /// Runs jobs until `seconds` of job time has passed and every design
    /// has run at least once in this phase.
    PhaseStats run_phase(double seconds, bool traced) {
        PhaseStats stats;
        for (std::size_t j = 0; stats.busy_s < seconds || j < designs_.size(); ++j) {
            const std::size_t k = j % designs_.size();
            report_.begin_op();
            std::string error;
            const auto t0 = Clock::now();
            FlowContext ctx(designs_[k], node28(), params_);
            try {
                if (traced) {
                    run_staged(ctx, static_cast<int>(j));
                } else if (last_stage_ == engine_.stages().back().name) {
                    engine_.run(ctx);
                } else {
                    engine_.run_to(ctx, last_stage_);
                }
            } catch (const std::exception& e) {
                error = e.what();
            }
            const double dt = seconds_since(t0);
            stats.busy_s += dt;
            stats.latency_ms.push_back(dt * 1000.0);
            stats.instances += static_cast<double>(designs_[k].num_instances());
            if (traced) counters_.add(ctx.trace, ctx.result, false);

            const std::string name = ctx.result.design;
            if (!error.empty()) {
                report_.end_op(false, name + ": flow threw: " + error);
                continue;
            }
            const std::string qor = qor_key(ctx.result);
            if (first_qor_[k].empty()) {
                first_qor_[k] = qor;
                report_.end_op(true, "");
                first_run_(k, designs_[k], ctx);
            } else {
                report_.end_op(qor == first_qor_[k],
                               name + ": QoR differs between runs of one design");
            }
        }
        return stats;
    }

    /// Per-layer metrics of the traced phase.
    void report_layers() {
        for (const std::string& stage : stages_) {
            const std::string span = stage_span(stage);
            counters_.stage_s[span] = tracer_.total_s(span);
        }
        counters_.report(report_);
        double stage_sum = 0;
        for (const auto& [span, s] : counters_.stage_s) stage_sum += s;
        const double job_s = tracer_.total_s("flow.job");
        report_.set("trace.stage_coverage", job_s > 0 ? stage_sum / job_s : 0.0);
    }

  private:
    /// The traced path: run_to one stage at a time, a span around each.
    void run_staged(FlowContext& ctx, int job) {
        Tracer::Scope span(tracer_, "flow.job", job);
        for (const std::string& stage : stages_) {
            Tracer::Scope s(tracer_, stage_span(stage), job);
            engine_.run_to(ctx, stage);
        }
        // Finalizes like the untraced path (run() also hands back the
        // implemented netlist).
        if (last_stage_ == engine_.stages().back().name) engine_.run(ctx);
    }

    const std::vector<Netlist>& designs_;
    FlowParams params_;
    std::string last_stage_;
    Report& report_;
    Tracer& tracer_;
    FirstRun first_run_;
    FlowEngine engine_;
    std::vector<std::string> stages_;
    std::vector<std::string> first_qor_;
    StageCounters counters_;
};

double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

}  // namespace

// ------------------------------------------------------------- flat_mesh

void run_flat_mesh(const RunOptions& opts, Report& report, Tracer& tracer) {
    const auto lib = make_lib();
    // One size for all six designs, so the median latency does not land
    // between two size classes. 45k stays below the router's congestion knee
    // (~50k gates at 65% utilization), past which route time swings from
    // 0.4 s to 3.7 s with the seed.
    const std::size_t gates = opts.smoke ? 6000 : 45000;
    std::vector<std::string> texts;
    for (std::uint64_t i = 0; i < 6; ++i) {
        texts.push_back(netlist_to_string(generate_mesh(lib, gates, mix_seed(opts.seed, i), 4)));
    }
    const std::vector<Netlist> designs = set_up(texts, report, tracer);

    FlowParams params;
    params.stages = FlowStageMask::ClockTree | FlowStageMask::Sizing;
    params.sa_moves_per_cell = 8;
    params.seed = mix_seed(opts.seed, 1000);
    std::vector<double> area(designs.size()), crit(designs.size());
    FlowJobLoop loop(designs, params, "power", report, tracer,
                     [&](std::size_t k, const Netlist& input, const FlowContext& ctx) {
                         const std::string name = ctx.result.design;
                         report.check(ctx.result.legal, name + ": placement not legal");
                         const auto problems = ctx.netlist.validate();
                         report.check(problems.empty(),
                                      name + ": validate: " +
                                          (problems.empty() ? "" : problems.front()));
                         report.check(ctx.netlist.num_instances() == input.num_instances(),
                                      name + ": instance count changed");
                         area[k] = ctx.result.area_um2;
                         crit[k] = ctx.result.critical_delay_ps;
                     });
    measure(opts, report, [&](double s, bool traced) { return loop.run_phase(s, traced); });
    report.set("qor_area_um2", sum(area));
    report.set("qor_crit_ps", sum(crit));
    if (opts.trace) loop.report_layers();
}

// ---------------------------------------------------------- synth_random

void run_synth_random(const RunOptions& opts, Report& report, Tracer& tracer) {
    const auto lib = make_lib();
    // Eight 10k-gate designs rather than four of 20k: twice the latency
    // samples per run, with logic still doing ~90% of the work.
    const int count = opts.smoke ? 2 : 8;
    std::vector<std::string> texts;
    for (int i = 0; i < count; ++i) {
        GeneratorConfig cfg;
        cfg.num_inputs = 128;
        cfg.num_outputs = 64;
        cfg.num_gates = opts.smoke ? 4000 : 10000;
        cfg.xor_fraction = 0.3;
        cfg.seed = mix_seed(opts.seed, static_cast<std::uint64_t>(i));
        texts.push_back(netlist_to_string(generate_random(lib, cfg)));
    }
    const std::vector<Netlist> designs = set_up(texts, report, tracer);

    FlowParams params;
    params.seed = mix_seed(opts.seed, 1000);
    std::vector<double> area(designs.size()), crit(designs.size());
    FlowJobLoop loop(designs, params, "map", report, tracer,
                     [&](std::size_t k, const Netlist& input, const FlowContext& ctx) {
                         EquivalenceOptions eq;
                         eq.sat_decisions = 0;  // random vectors only
                         eq.random_vectors = 256;
                         eq.seed = mix_seed(opts.seed, 2000 + k);
                         const EquivalenceResult res =
                             check_equivalence(input, ctx.netlist, eq);
                         report.check(res.equivalent,
                                      ctx.result.design + ": mapped netlist not "
                                                          "equivalent to its input");
                         area[k] = ctx.netlist.total_area();
                         crit[k] = run_sta(ctx.netlist, sta_options()).critical_delay_ps;
                     });
    measure(opts, report, [&](double s, bool traced) { return loop.run_phase(s, traced); });
    report.set("qor_area_um2", sum(area));
    report.set("qor_crit_ps", sum(crit));
    if (opts.trace) loop.report_layers();
}

// ---------------------------------------------------------- corpus_batch

namespace {

const std::vector<std::string> kCorpus = {
    "c17.bench", "cla16.bench", "mul8.bench", "alu8.bench",
    "counter8.blif", "par32.aag", "mul6.aig",
};
constexpr int kBatchWorkers = 4;

/// run_scenarios split into its public calls so each gets a span, with the
/// engine's stage trace kept per job. Same jobs, same parameters.
std::vector<scenario::ScenarioResult> traced_scenarios(
    const std::vector<scenario::ScenarioCell>& cells, const std::string& dir,
    Tracer& tracer, StageCounters& counters) {
    const auto lib = make_lib();
    std::map<std::string, Netlist> designs;
    {
        Tracer::Scope span(tracer, "scenario.load_design", -1);
        for (const std::string& d : kCorpus) {
            designs.emplace(d, scenario::load_design(dir + "/" + d, lib));
        }
    }
    std::vector<FlowJob> jobs;
    for (const scenario::ScenarioCell& c : cells) {
        FlowParams p;
        p.utilization = c.utilization;
        p.routing_layers = c.routing_layers;
        jobs.push_back(FlowJob{designs.at(c.design), node28(), p, {}});
    }
    FlowEngine engine;
    std::vector<StageTrace> traces;
    std::vector<FlowResult> flows;
    {
        Tracer::Scope span(tracer, "flow.batch", -1);
        flows = engine.run_batch(jobs, kBatchWorkers, &traces);
    }
    std::vector<scenario::ScenarioResult> out(cells.size());
    const auto corners = standard_corners();
    Tracer::Scope span(tracer, "timing.corner_sta", -1);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        out[i].cell = cells[i];
        out[i].flow = flows[i];
        counters.add(traces[i], flows[i], true);
        if (flows[i].failed() || !flows[i].mapped) {
            out[i].error = "flow: " + flows[i].error;
            continue;
        }
        for (const TimingCorner& corner : corners) {
            if (corner.name != cells[i].corner) continue;
            const MultiCornerReport mc = run_multi_corner(*flows[i].mapped, {}, {corner});
            out[i].corner_wns_ps = mc.reports.at(0).wns_ps;
            out[i].corner_hold_ps = mc.reports.at(0).hold_wns_ps;
        }
    }
    return out;
}

}  // namespace

void run_corpus_batch(const RunOptions& opts, Report& report, Tracer& tracer) {
    const std::string root = scenario::find_repo_root();
    if (root.empty()) throw std::runtime_error("repository root (ROADMAP.md) not found");
    const std::string dir = root + "/tests/corpus";
    const server::JsonValue baseline =
        scenario::load_baseline(dir + "/scenario_baselines.json");
    if (!baseline.is_object()) throw std::runtime_error("scenario baselines missing");
    const auto lib = make_lib();

    // Set-up: parse the seven corpus files.
    std::map<std::string, double> instances_in;
    std::vector<double> times;
    const auto start = Clock::now();
    while (!setup_done(times.size(), seconds_since(start))) {
        const auto t0 = Clock::now();
        for (const std::string& d : kCorpus) {
            Tracer::Scope span(tracer, "netlist.read", -1);
            instances_in[d] = static_cast<double>(
                scenario::load_design(dir + "/" + d, lib).num_instances());
        }
        times.push_back(seconds_since(t0));
    }
    double bytes = 0;
    for (const std::string& d : kCorpus) {
        bytes += static_cast<double>(std::filesystem::file_size(dir + "/" + d));
    }
    const double read_s = median(times);
    report.set("setup_s", read_s);
    report.set("netlist.read_s", read_s);
    report.set("netlist.read_mb_per_s", bytes / 1e6 / read_s);

    scenario::ScenarioMatrix matrix;
    matrix.designs = kCorpus;
    matrix.corners = {"tt_nom", "ss_lowv_hot"};
    matrix.utilizations = {0.55, 0.70};
    matrix.layer_budgets = {5, 6};
    std::vector<scenario::ScenarioCell> cells = matrix.expand();
    if (opts.smoke) cells.resize(16);

    std::map<std::string, std::string> first_qor;  // scenario key -> QoR
    double area = 0, crit = 0;
    StageCounters counters;
    double traced_cpu_s = 0;
    int rep = 0;
    const auto phase = [&](double seconds, bool traced) {
        PhaseStats stats;
        for (int i = 0; stats.busy_s < seconds || i == 0; ++i, ++rep) {
            // The seed only orders the submissions: the corpus is fixed, and
            // its QoR is pinned against the committed baselines.
            std::vector<scenario::ScenarioCell> order = cells;
            Rng rng(mix_seed(opts.seed, static_cast<std::uint64_t>(rep)));
            rng.shuffle(order);
            for (std::size_t c = 0; c < order.size(); ++c) report.begin_op();
            const auto t0 = Clock::now();
            const std::vector<scenario::ScenarioResult> results =
                traced ? traced_scenarios(order, dir, tracer, counters)
                       : scenario::run_scenarios(order, dir, lib, kBatchWorkers);
            stats.busy_s += seconds_since(t0);
            for (const scenario::ScenarioResult& r : results) {
                const std::string key = r.cell.key();
                stats.latency_ms.push_back(r.flow.runtime_ms);
                stats.instances += instances_in[r.cell.design];
                if (traced) traced_cpu_s += r.flow.runtime_ms / 1000.0;
                if (r.failed()) {
                    report.end_op(false, key + ": " + r.error);
                    continue;
                }
                const std::string qor = qor_key(r.flow);
                const auto [it, fresh] = first_qor.emplace(key, qor);
                if (fresh) {
                    area += r.flow.area_um2;
                    crit += r.flow.critical_delay_ps;
                }
                report.end_op(it->second == qor, key + ": QoR differs between reps");
            }
            scenario::Tolerances tol;
            const std::vector<std::string> diffs =
                scenario::diff_against_baseline(results, baseline, tol);
            report.check(diffs.empty(),
                         "scenario baseline: " + (diffs.empty() ? "" : diffs.front()));
        }
        return stats;
    };
    measure(opts, report, phase);
    report.set("qor_area_um2", area);
    report.set("qor_crit_ps", crit);
    if (opts.trace) {
        counters.report(report);
        const double batches = static_cast<double>(tracer.count("flow.batch"));
        const double batch_s = tracer.total_s("flow.batch");
        report.set("scenario.load_design_s",
                   batches > 0 ? tracer.total_s("scenario.load_design") / batches : 0.0);
        report.set("flow.batch_util",
                   batch_s > 0 ? traced_cpu_s / (batch_s * kBatchWorkers) : 0.0);
    }
}

// ------------------------------------------------------------- hier_mesh

void run_hier_mesh(const RunOptions& opts, Report& report, Tracer& tracer) {
    const auto lib = make_lib();
    // Two designs, alternated, so one seed's layout does not set the whole
    // run. Blocks of ~40k gates stay below the router's congestion knee;
    // smaller blocks (25k) carry so many boundary pins that some of them
    // route with overflow and run 10x slower.
    const std::size_t gates = opts.smoke ? 60000 : 320000;
    std::vector<std::string> texts;
    for (std::uint64_t i = 0; i < 2; ++i) {
        texts.push_back(netlist_to_string(generate_mesh(lib, gates, mix_seed(opts.seed, i), 4)));
    }
    const std::vector<Netlist> designs = set_up(texts, report, tracer);

    HierParams hp;
    hp.num_blocks = 8;
    hp.workers = 4;
    hp.block_flow.stages = FlowStageMask::None;
    hp.block_flow.seed = mix_seed(opts.seed, 1000);

    std::vector<std::string> first_qor(designs.size());
    std::vector<double> area(designs.size()), crit(designs.size());
    double blocks_cpu_s = 0, cut_nets = 0;
    // Hierarchical flow number i (design i % 2) as one checked operation;
    // returns its wall time.
    const auto run_one = [&](std::size_t i, bool traced) {
        const std::size_t k = i % designs.size();
        const Netlist& nl = designs[k];
        const int job = static_cast<int>(i);
        if (traced) {
            // Partition and top STA are timed from outside by repeating the
            // calls run_hier_flow makes internally.
            Tracer::Scope span(tracer, "flow.partition", job);
            cut_nets += static_cast<double>(partition_min_cut(nl, hp.num_blocks).cut_nets);
        }
        report.begin_op();
        HierFlowResult res;
        std::string error;
        const auto t0 = Clock::now();
        try {
            Tracer::Scope span(tracer, "flow.hier", job);
            res = run_hier_flow(nl, node28(), hp);
        } catch (const std::exception& e) {
            error = e.what();
        }
        const double dt = seconds_since(t0);
        if (error.empty()) error = res.top.error;
        if (!error.empty()) {
            report.end_op(false, nl.name() + ": hier flow: " + error);
            return dt;
        }
        const std::string qor = qor_key(res.top);
        if (first_qor[k].empty()) {
            first_qor[k] = qor;
            area[k] = res.top.area_um2;
            crit[k] = res.top.critical_delay_ps;
        }
        report.end_op(qor == first_qor[k], nl.name() + ": hier QoR differs between runs");
        report.check(res.top.instances == nl.num_instances(),
                     nl.name() + ": merged instance count differs from the input");
        if (traced) {
            for (const HierBlockResult& b : res.blocks) {
                blocks_cpu_s += b.flow.runtime_ms / 1000.0;
            }
            Tracer::Scope span(tracer, "timing.top_sta", job);
            run_sta(*res.merged, sta_options());
        }
        return dt;
    };
    // The first hierarchical flow in a process runs about 1.7x slower than
    // the rest (fresh memory pages; later flows reuse what the allocator
    // kept), and how much slower depends on the host, so one untimed flow
    // runs before the measurement.
    run_one(0, false);
    const auto phase = [&](double seconds, bool traced) {
        PhaseStats stats;
        for (std::size_t i = 0; stats.busy_s < seconds || i < designs.size(); ++i) {
            const double dt = run_one(i, traced);
            stats.busy_s += dt;
            stats.latency_ms.push_back(dt * 1000.0);
            stats.instances += static_cast<double>(designs[i % designs.size()].num_instances());
        }
        return stats;
    };
    measure(opts, report, phase);
    report.set("qor_area_um2", sum(area));
    report.set("qor_crit_ps", sum(crit));
    const double runs = static_cast<double>(tracer.count("flow.hier"));
    if (opts.trace && runs > 0) {
        report.set("flow.partition_s", tracer.total_s("flow.partition") / runs);
        report.set("flow.cut_nets", cut_nets / runs);
        report.set("timing.top_sta_s", tracer.total_s("timing.top_sta") / runs);
        report.set("flow.hier_blocks_cpu_s", blocks_cpu_s / runs);
        report.set("flow.hier_block_util",
                   blocks_cpu_s / (tracer.total_s("flow.hier") * hp.workers));
    }
}

}  // namespace janus::e2e
