#include "janus/flow/tuner.hpp"

#include <algorithm>
#include <limits>

#include "janus/util/rng.hpp"
#include "janus/util/thread_pool.hpp"

namespace janus {
namespace {

/// Classic strictly-sequential epsilon-greedy over one shared RNG stream.
/// Kept verbatim so existing seeds reproduce their historical trajectories.
void tune_serial(const std::vector<TunerArm>& arms,
                 const std::function<double(const FlowParams&, int)>& evaluate,
                 const TunerOptions& opts, TunerResult& res) {
    Rng rng(opts.seed);
    for (int run = 0; run < opts.runs; ++run) {
        std::size_t arm;
        // Every arm gets one warm-up pull; afterwards epsilon-greedy.
        const auto cold =
            std::find(res.pulls.begin(), res.pulls.end(), 0);
        if (cold != res.pulls.end()) {
            arm = static_cast<std::size_t>(cold - res.pulls.begin());
        } else if (rng.next_bool(opts.epsilon)) {
            arm = rng.pick_index(arms.size());
        } else {
            arm = 0;
            for (std::size_t a = 1; a < arms.size(); ++a) {
                if (res.mean_cost[a] < res.mean_cost[arm]) arm = a;
            }
        }
        const double cost = evaluate(arms[arm].params, run);
        // Incremental mean update.
        ++res.pulls[arm];
        res.mean_cost[arm] +=
            (cost - res.mean_cost[arm]) / static_cast<double>(res.pulls[arm]);
        res.history.push_back(TunerRun{arm, cost});
    }
}

/// Wave-scheduled epsilon-greedy: decisions for a whole wave are made from
/// the statistics frozen at wave start, each run drawing from its own
/// Rng(mix_seed(seed, run)). Decisions therefore never depend on how many
/// workers evaluate the wave — workers=N is bit-identical to workers=1
/// with the same wave size.
void tune_waves(const std::vector<TunerArm>& arms,
                const std::function<double(const FlowParams&, int)>& evaluate,
                const TunerOptions& opts, TunerResult& res) {
    const int wave =
        std::max(1, opts.wave > 0 ? opts.wave : opts.workers);
    WorkerTeam team(opts.workers);
    for (int start = 0; start < opts.runs; start += wave) {
        const int count = std::min(wave, opts.runs - start);
        // Decide every arm of the wave up front. Warm-up pulls are tracked
        // in a scheduled-pulls snapshot so each cold arm is claimed once
        // per wave, exactly as a serial scheduler would hand them out.
        std::vector<int> scheduled = res.pulls;
        std::vector<std::size_t> chosen(static_cast<std::size_t>(count));
        for (int k = 0; k < count; ++k) {
            std::size_t arm;
            const auto cold =
                std::find(scheduled.begin(), scheduled.end(), 0);
            if (cold != scheduled.end()) {
                arm = static_cast<std::size_t>(cold - scheduled.begin());
            } else {
                Rng rng(mix_seed(opts.seed,
                                 static_cast<std::uint64_t>(start + k)));
                if (rng.next_bool(opts.epsilon)) {
                    arm = rng.pick_index(arms.size());
                } else {
                    // Exploit the best mean among arms pulled before this
                    // wave (means frozen at wave start).
                    arm = 0;
                    double best = std::numeric_limits<double>::infinity();
                    for (std::size_t a = 0; a < arms.size(); ++a) {
                        if (res.pulls[a] > 0 && res.mean_cost[a] < best) {
                            best = res.mean_cost[a];
                            arm = a;
                        }
                    }
                }
            }
            ++scheduled[arm];
            chosen[static_cast<std::size_t>(k)] = arm;
        }
        std::vector<double> costs(static_cast<std::size_t>(count));
        team.for_each(costs.size(), [&](std::size_t k, std::size_t) {
            costs[k] = evaluate(arms[chosen[k]].params,
                                start + static_cast<int>(k));
        });
        // Merge in run order so statistics are scheduling-independent.
        for (std::size_t k = 0; k < costs.size(); ++k) {
            const std::size_t arm = chosen[k];
            ++res.pulls[arm];
            res.mean_cost[arm] += (costs[k] - res.mean_cost[arm]) /
                                  static_cast<double>(res.pulls[arm]);
            res.history.push_back(TunerRun{arm, costs[k]});
        }
    }
}

}  // namespace

TunerResult tune(const std::vector<TunerArm>& arms,
                 const std::function<double(const FlowParams&, int run_index)>& evaluate,
                 const TunerOptions& opts) {
    TunerResult res;
    if (arms.empty()) return res;
    res.mean_cost.assign(arms.size(), 0.0);
    res.pulls.assign(arms.size(), 0);

    if (opts.workers <= 1 && opts.wave <= 1) {
        tune_serial(arms, evaluate, opts, res);
    } else {
        tune_waves(arms, evaluate, opts, res);
    }

    res.best_arm = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < arms.size(); ++a) {
        if (res.pulls[a] > 0 && res.mean_cost[a] < best) {
            best = res.mean_cost[a];
            res.best_arm = a;
        }
    }
    res.best_mean_cost = best;
    return res;
}

std::vector<TunerArm> default_arms() {
    std::vector<TunerArm> arms;
    const auto add = [&](std::string name, auto&& mod) {
        TunerArm arm;
        arm.name = std::move(name);
        mod(arm.params);
        arms.push_back(std::move(arm));
    };
    add("fast", [](FlowParams& p) {
        p.optimize_rounds = 1;
        p.placer_iterations = 60;
        p.router_iterations = 3;
    });
    add("balanced", [](FlowParams& p) {
        p.optimize_rounds = 3;
        p.placer_iterations = 250;
        p.router_iterations = 8;
    });
    add("thorough", [](FlowParams& p) {
        p.optimize_rounds = 5;
        p.placer_iterations = 500;
        p.sa_moves_per_cell = 20;
        p.router_iterations = 16;
    });
    add("dense", [](FlowParams& p) {
        p.utilization = 0.85;  // aggressive area at congestion risk
        p.placer_iterations = 250;
    });
    add("sparse", [](FlowParams& p) {
        p.utilization = 0.45;  // easy routing, wasted silicon
        p.placer_iterations = 250;
    });
    return arms;
}

}  // namespace janus
