#include "janus/flow/tuner.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "janus/util/rng.hpp"

namespace janus {

TunerResult tune(const std::vector<TunerArm>& arms,
                 const std::function<double(const FlowParams&, int run_index)>& evaluate,
                 const TunerOptions& opts) {
    constexpr std::uint64_t kSeed = 7;
    TunerResult res;
    if (arms.empty()) return res;
    res.mean_cost.assign(arms.size(), 0.0);
    res.pulls.assign(arms.size(), 0);

    // Strictly-sequential epsilon-greedy over one RNG stream.
    Rng rng(kSeed);
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
