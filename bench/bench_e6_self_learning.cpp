/// E6 (Rossi): "there is no real self-monitoring of the implementation
/// tools able to generate information useful to the next runs ... a kind
/// of built-in self-learning engine having access to an exhaustive set of
/// information could better drive for more consistent results."
///
/// Reproduction: an epsilon-greedy bandit tunes flow parameters across
/// sequential runs of similar designs (what a methodology team sees
/// tapeout after tapeout) and is compared against the static default
/// configuration. The shape: the learned policy's late-run average cost
/// beats the static default, and run-to-run variance shrinks.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "janus/flow/flow.hpp"
#include "janus/flow/tuner.hpp"
#include "janus/util/stats.hpp"

using namespace janus;

int main() {
    bench::banner("E6 bench_e6_self_learning", "Domenico Rossi (ST)",
                  "a built-in self-learning engine drives more consistent results");
    const auto lib = bench::make_lib();
    const auto node = *find_node("28nm");

    const auto run_one = [&](const FlowParams& p, int run) {
        GeneratorConfig cfg;
        cfg.num_gates = 350;
        cfg.num_inputs = 20;
        cfg.seed = 1000 + static_cast<std::uint64_t>(run);
        const Netlist nl = generate_random(lib, cfg);
        FlowParams params = p;
        params.seed = cfg.seed;
        return run_flow(nl, node, params).cost();
    };

    const auto arms = default_arms();
    TunerOptions topts;
    topts.runs = 40;
    topts.epsilon = 0.15;
    const TunerResult tuned = tune(arms, run_one, topts);

    // Static baseline: the "balanced" defaults on the same workload.
    RunningStats static_cost;
    for (int run = 0; run < topts.runs; ++run) {
        static_cost.add(run_one(FlowParams{}, run));
    }

    std::printf("%-10s %8s %12s\n", "arm", "pulls", "mean_cost");
    for (std::size_t a = 0; a < arms.size(); ++a) {
        std::printf("%-10s %8d %12.2f%s\n", arms[a].name.c_str(), tuned.pulls[a],
                    tuned.mean_cost[a], a == tuned.best_arm ? "  <- learned" : "");
    }

    RunningStats early, late;
    for (std::size_t i = 0; i < tuned.history.size(); ++i) {
        (i < tuned.history.size() / 2 ? early : late).add(tuned.history[i].cost);
    }
    std::printf("\nstatic default: mean %.2f (stddev %.2f)\n", static_cost.mean(),
                static_cost.stddev());
    std::printf("tuner early half: mean %.2f (stddev %.2f)\n", early.mean(),
                early.stddev());
    std::printf("tuner late half:  mean %.2f (stddev %.2f)\n\n", late.mean(),
                late.stddev());

    bool ok = bench::shape_check("learned arm beats the static default's mean cost",
                                 tuned.best_mean_cost <= static_cost.mean());
    ok &= bench::shape_check("late-phase mean cost <= early-phase (learning curve)",
                             late.mean() <= early.mean() * 1.02);
    ok &= bench::shape_check("late-phase variance shrinks (more consistent results)",
                             late.stddev() <= early.stddev() * 1.05);
    // Exploitation: the learned arm received at least its fair share of
    // pulls (epsilon exploration plus noisy costs keep this stochastic).
    ok &= bench::shape_check("learned arm pulled at least the uniform share",
                             tuned.pulls[tuned.best_arm] >=
                                 static_cast<int>(tuned.history.size() / arms.size()));
    return ok ? 0 : 1;
}
