#include "janus/timing/timing_graph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "janus/util/thread_pool.hpp"

namespace janus {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

std::vector<TimingEndpoint> timing_endpoints(const Netlist& nl,
                                             const StaOptions& opts) {
    std::vector<TimingEndpoint> out;
    for (const auto& [name, net] : nl.primary_outputs()) {
        (void)name;
        out.push_back({net, opts.clock_period_ps});
    }
    for (const InstId f : nl.sequential_instances()) {
        const Instance& inst = nl.instance(f);
        const int arity = function_arity(nl.type_of(f).function);
        for (int p = 0; p < arity; ++p) {
            out.push_back({inst.fanin[static_cast<std::size_t>(p)],
                           opts.clock_period_ps - opts.setup_ps});
        }
    }
    return out;
}

TimingGraph::TimingGraph(const Netlist& nl, const StaOptions& opts)
    : nl_(&nl), opts_(opts), epoch_(nl.mutation_epoch()) {
    build_levels();
}

void TimingGraph::check_fresh() const {
    if (nl_->mutation_epoch() != epoch_) {
        throw std::logic_error(
            "TimingGraph: netlist structure changed since construction; "
            "build a new graph");
    }
}

void TimingGraph::build_levels() {
    const std::size_t ni = nl_->num_instances();
    const std::size_t nn = nl_->num_nets();

    // topological_order() also materializes the sink cache, so the parallel
    // sweeps below only ever read it.
    const std::vector<InstId>& order = nl_->topological_order();

    level_of_.assign(ni, -1);
    int max_level = -1;
    for (const InstId i : order) {
        const Instance& inst = nl_->instance(i);
        const int arity = function_arity(nl_->type_of(i).function);
        int lv = 0;
        for (int p = 0; p < arity; ++p) {
            const NetId n = inst.fanin[static_cast<std::size_t>(p)];
            if (n == kNoNet) continue;
            const Net& net = nl_->net(n);
            if (net.driver_kind == DriverKind::Instance &&
                !is_sequential(nl_->type_of(net.driver_inst).function)) {
                lv = std::max(lv, level_of_[net.driver_inst] + 1);
            }
        }
        level_of_[i] = lv;
        max_level = std::max(max_level, lv);
    }
    levels_.assign(static_cast<std::size_t>(max_level + 1), {});
    for (const InstId i : order) {
        levels_[static_cast<std::size_t>(level_of_[i])].push_back(i);
    }

    sequential_ = nl_->sequential_instances();

    // Nets not driven by a combinational instance: PIs, flop Q pins, and
    // undriven nets. Their requireds are gathered after the backward sweep.
    source_nets_.clear();
    for (NetId n = 0; n < nn; ++n) {
        const Net& net = nl_->net(n);
        const bool comb_driven =
            net.driver_kind == DriverKind::Instance &&
            !is_sequential(nl_->type_of(net.driver_inst).function);
        if (!comb_driven) source_nets_.push_back(n);
    }

    endpoints_ = timing_endpoints(*nl_, opts_);
    endpoint_base_.assign(nn, kInf);
    for (const TimingEndpoint& e : endpoints_) {
        endpoint_base_[e.net] = std::min(endpoint_base_[e.net], e.required_ps);
    }

    // Incremental bookkeeping, sized once.
    delay_dirty_.assign(ni, 0);
    in_fwd_.assign(ni, 0);
    in_bwd_.assign(ni, 0);
    source_dirty_.assign(nn, 0);
    pending_fwd_.assign(levels_.size(), {});
    pending_bwd_.assign(levels_.size(), {});
    dirty_seeds_.clear();
}

void TimingGraph::eval_forward(InstId i) {
    const Instance& inst = nl_->instance(i);
    const int arity = function_arity(nl_->type_of(i).function);
    const double gd = gate_delay_[i];
    double in_arr = 0.0;
    double in_min = kInf;
    for (int p = 0; p < arity; ++p) {
        const NetId n = inst.fanin[static_cast<std::size_t>(p)];
        in_arr = std::max(in_arr, arrival_[n]);
        in_min = std::min(in_min, min_arrival_[n]);
    }
    if (arity == 0) in_min = 0.0;
    arrival_[inst.output] = in_arr + gd;
    min_arrival_[inst.output] = in_min + gd;
}

void TimingGraph::eval_backward(InstId i) {
    // Gather form of the serial scatter loop: required(out) is the min of
    // the endpoint constraint on the output net and every combinational
    // sink's (required(sink.out) - delay(sink)). min over doubles is exact,
    // so the result is byte-identical to the scatter order.
    const NetId out = nl_->instance(i).output;
    double req = endpoint_base_[out];
    for (const SinkRef& s : nl_->sinks(out)) {
        if (is_sequential(nl_->type_of(s.inst()).function)) continue;
        req = std::min(req,
                       required_[nl_->instance(s.inst()).output] - gate_delay_[s.inst()]);
    }
    required_[out] = req;
}

void TimingGraph::recompute_source_required(NetId net) {
    double req = endpoint_base_[net];
    for (const SinkRef& s : nl_->sinks(net)) {
        if (is_sequential(nl_->type_of(s.inst()).function)) continue;
        req = std::min(req,
                       required_[nl_->instance(s.inst()).output] - gate_delay_[s.inst()]);
    }
    required_[net] = req;
}

void TimingGraph::analyze() {
    check_fresh();
    const std::size_t ni = nl_->num_instances();
    const std::size_t nn = nl_->num_nets();

    // A full rebuild supersedes any queued incremental seeds.
    for (const InstId i : dirty_seeds_) delay_dirty_[i] = 0;
    dirty_seeds_.clear();

    // Instances of a level read only strictly lower levels (forward) or
    // strictly higher ones (backward) and write only their own output slot,
    // so each level sweeps race-free and bit-identical to a serial loop.
    WorkerTeam team(opts_.sta_workers);

    // Forward: startpoints, then level-by-level delays + arrivals.
    gate_delay_.assign(ni, 0.0);
    arrival_.assign(nn, 0.0);
    min_arrival_.assign(nn, 0.0);
    for (const InstId f : sequential_) {
        const NetId q = nl_->instance(f).output;
        arrival_[q] = opts_.clk_to_q_ps;
        min_arrival_[q] = opts_.clk_to_q_ps;
    }
    for (const auto& level : levels_) {
        team.for_each(level.size(), [&](std::size_t k, std::size_t) {
            const InstId i = level[k];
            gate_delay_[i] = instance_delay_ps(*nl_, i, opts_.wire);
            eval_forward(i);
        }, kParallelGrain);
    }

    // Backward: level-by-level requireds (descending), then source nets.
    required_.assign(nn, kInf);
    for (auto it = levels_.rbegin(); it != levels_.rend(); ++it) {
        team.for_each(it->size(), [&](std::size_t k, std::size_t) {
            eval_backward((*it)[k]);
        }, kParallelGrain);
    }
    for (const NetId n : source_nets_) recompute_source_required(n);

    // Slacks. Nets with no downstream endpoint keep +inf required; their
    // slack is +inf (irrelevant).
    slack_.assign(nn, 0.0);
    for (NetId n = 0; n < nn; ++n) {
        slack_[n] = std::isinf(required_[n]) ? kInf : required_[n] - arrival_[n];
    }
    analyzed_ = true;
}

std::size_t TimingGraph::max_level_width() const {
    std::size_t widest = 0;
    for (const auto& level : levels_) widest = std::max(widest, level.size());
    return widest;
}

void TimingGraph::mark_dirty(InstId inst) {
    if (inst >= level_of_.size() || level_of_[inst] < 0) return;  // sequential
    if (!delay_dirty_[inst]) {
        delay_dirty_[inst] = 1;
        dirty_seeds_.push_back(inst);
    }
}

void TimingGraph::resize(InstId inst) {
    mark_dirty(inst);
    // The resized cell's input capacitance changed, so the load — and hence
    // the delay — of every fanin driver changed with it.
    const Instance& in = nl_->instance(inst);
    const int arity = function_arity(nl_->type_of(inst).function);
    for (int p = 0; p < arity; ++p) {
        const NetId n = in.fanin[static_cast<std::size_t>(p)];
        if (n == kNoNet) continue;
        const Net& net = nl_->net(n);
        if (net.driver_kind == DriverKind::Instance) mark_dirty(net.driver_inst);
    }
}

void TimingGraph::enqueue_forward(InstId i) {
    if (!in_fwd_[i]) {
        in_fwd_[i] = 1;
        pending_fwd_[static_cast<std::size_t>(level_of_[i])].push_back(i);
    }
}

void TimingGraph::enqueue_backward(InstId i) {
    if (!in_bwd_[i]) {
        in_bwd_[i] = 1;
        pending_bwd_[static_cast<std::size_t>(level_of_[i])].push_back(i);
    }
}

void TimingGraph::seed_backward_from(InstId i) {
    // Instance i's contribution to its fanin nets changed (new delay or new
    // output required): re-gather each fanin net's required at its driver.
    const Instance& inst = nl_->instance(i);
    const int arity = function_arity(nl_->type_of(i).function);
    for (int p = 0; p < arity; ++p) {
        const NetId n = inst.fanin[static_cast<std::size_t>(p)];
        if (n == kNoNet) continue;
        const Net& net = nl_->net(n);
        if (net.driver_kind == DriverKind::Instance &&
            !is_sequential(nl_->type_of(net.driver_inst).function)) {
            enqueue_backward(net.driver_inst);
        } else {
            source_dirty_[n] = 1;
        }
    }
}

TimingUpdateStats TimingGraph::update() {
    check_fresh();
    if (!analyzed_) {
        throw std::logic_error("TimingGraph::update: analyze() must run first");
    }
    TimingUpdateStats st;
    if (dirty_seeds_.empty()) return st;

    std::vector<NetId> touched;       // nets whose slack must refresh
    std::vector<NetId> dirty_sources;

    for (const InstId i : dirty_seeds_) enqueue_forward(i);
    dirty_seeds_.clear();

    // Forward cone: ascending level order, so every instance is evaluated
    // at most once per update with all fanins final.
    for (std::size_t lv = 0; lv < pending_fwd_.size(); ++lv) {
        auto& q = pending_fwd_[lv];
        if (q.empty()) continue;
        ++st.levels_touched;
        for (std::size_t k = 0; k < q.size(); ++k) {  // q grows only at higher levels
            const InstId i = q[k];
            bool gd_changed = false;
            if (delay_dirty_[i]) {
                delay_dirty_[i] = 0;
                ++st.delays_recomputed;
                const double gd = instance_delay_ps(*nl_, i, opts_.wire);
                if (gd != gate_delay_[i]) {
                    gate_delay_[i] = gd;
                    gd_changed = true;
                }
            }
            const NetId out = nl_->instance(i).output;
            const double old_arr = arrival_[out];
            const double old_min = min_arrival_[out];
            eval_forward(i);
            ++st.forward_evals;
            if (arrival_[out] != old_arr || min_arrival_[out] != old_min) {
                touched.push_back(out);
                for (const SinkRef& s : nl_->sinks(out)) {
                    if (level_of_[s.inst()] >= 0) enqueue_forward(s.inst());
                }
            }
            // Requireds depend on delays and constraints, never on
            // arrivals, so only delay changes seed the backward cone.
            if (gd_changed) seed_backward_from(i);
        }
        for (const InstId i : q) in_fwd_[i] = 0;
        q.clear();
    }

    // Backward cone: descending level order; a changed required re-gathers
    // the fanin nets' requireds at their drivers.
    for (std::size_t lv = pending_bwd_.size(); lv-- > 0;) {
        auto& q = pending_bwd_[lv];
        if (q.empty()) continue;
        ++st.levels_touched;
        for (std::size_t k = 0; k < q.size(); ++k) {  // q grows only at lower levels
            const InstId i = q[k];
            const NetId out = nl_->instance(i).output;
            const double old_req = required_[out];
            eval_backward(i);
            ++st.backward_evals;
            if (required_[out] != old_req) {
                touched.push_back(out);
                seed_backward_from(i);
            }
        }
        for (const InstId i : q) in_bwd_[i] = 0;
        q.clear();
    }
    for (NetId n = 0; n < source_dirty_.size(); ++n) {
        if (!source_dirty_[n]) continue;
        source_dirty_[n] = 0;
        const double old_req = required_[n];
        recompute_source_required(n);
        if (required_[n] != old_req) touched.push_back(n);
    }

    for (const NetId n : touched) {
        slack_[n] = std::isinf(required_[n]) ? kInf : required_[n] - arrival_[n];
    }
    return st;
}

double TimingGraph::critical_delay_ps() const {
    double critical = 0.0;
    for (const TimingEndpoint& e : endpoints_) {
        critical = std::max(critical, arrival_[e.net]);
    }
    return critical;
}

TimingReport TimingGraph::report() const {
    if (!analyzed_) {
        throw std::logic_error("TimingGraph::report: analyze() must run first");
    }
    TimingReport r;

    // Setup summary over endpoints, in canonical endpoint order (the
    // floating-point TNS sum depends on it).
    double worst = kInf;
    double critical = 0.0;
    NetId worst_net = kNoNet;
    for (const TimingEndpoint& e : endpoints_) {
        const double s = e.required_ps - arrival_[e.net];
        if (s < 0) r.tns_ps += s;
        if (s < worst) {
            worst = s;
            worst_net = e.net;
        }
        critical = std::max(critical, arrival_[e.net]);
    }
    r.wns_ps = std::isfinite(worst) ? worst : 0.0;
    r.worst_endpoint = worst_net;
    r.critical_delay_ps = critical;
    r.fmax_ghz = critical > 0 ? 1000.0 / critical : 0.0;

    // Hold: flop D pins must not receive data before the window closes.
    r.hold_wns_ps = kInf;
    for (const InstId f : sequential_) {
        const NetId d = nl_->instance(f).fanin[0];
        if (d == kNoNet) continue;
        const double slack = min_arrival_[d] - opts_.hold_ps;
        if (slack < 0) ++r.hold_violations;
        r.hold_wns_ps = std::min(r.hold_wns_ps, slack);
    }
    if (!std::isfinite(r.hold_wns_ps)) r.hold_wns_ps = 0.0;

    // Critical path: walk back from the maximal-arrival endpoint.
    NetId cursor = kNoNet;
    double best_arr = -1.0;
    for (const TimingEndpoint& e : endpoints_) {
        if (arrival_[e.net] > best_arr) {
            best_arr = arrival_[e.net];
            cursor = e.net;
        }
    }
    while (cursor != kNoNet) {
        const Net& net = nl_->net(cursor);
        if (net.driver_kind != DriverKind::Instance) break;
        const InstId d = net.driver_inst;
        if (is_sequential(nl_->type_of(d).function)) break;
        r.critical_path.push_back(d);
        const Instance& inst = nl_->instance(d);
        const int arity = function_arity(nl_->type_of(d).function);
        NetId next = kNoNet;
        double arr = -1.0;
        for (int p = 0; p < arity; ++p) {
            const NetId fn = inst.fanin[static_cast<std::size_t>(p)];
            if (arrival_[fn] > arr) {
                arr = arrival_[fn];
                next = fn;
            }
        }
        cursor = next;
    }
    std::reverse(r.critical_path.begin(), r.critical_path.end());
    return r;
}

}  // namespace janus
