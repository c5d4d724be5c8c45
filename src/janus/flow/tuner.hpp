#pragma once
/// \file tuner.hpp
/// The self-learning engine panelist Rossi asks for: a bandit that learns
/// across flow runs which parameter configuration gives consistent QoR,
/// instead of leaving the tuning to "the user figuring up how the
/// algorithms work" (E6). Pulls run one after another over one seeded
/// RNG stream, so a given arm set, budget and cost function always give
/// the same trajectory.

#include <functional>
#include <string>
#include <vector>

#include "janus/flow/flow.hpp"

namespace janus {

/// One parameter configuration (an arm of the bandit).
struct TunerArm {
    std::string name;
    FlowParams params;
};

struct TunerOptions {
    double epsilon = 0.2;       ///< exploration probability
    int runs = 40;              ///< total flow runs the tuner may spend
};

struct TunerRun {
    std::size_t arm = 0;
    double cost = 0;
};

struct TunerResult {
    std::vector<TunerRun> history;
    std::vector<double> mean_cost;   ///< per arm
    std::vector<int> pulls;          ///< per arm
    std::size_t best_arm = 0;
    double best_mean_cost = 0;
};

/// Runs epsilon-greedy tuning: each pull runs the provided evaluation
/// function (normally run_flow on a fresh design instance) and records
/// its cost. Exposed as a function-of-arm callback so benches can swap
/// the workload. Pulls run in order on the calling thread; `run_index`
/// counts them from 0.
TunerResult tune(const std::vector<TunerArm>& arms,
                 const std::function<double(const FlowParams&, int run_index)>& evaluate,
                 const TunerOptions& opts = {});

/// The default arm set: effort levels from "fast" to "thorough" plus two
/// deliberately unbalanced configurations.
std::vector<TunerArm> default_arms();

}  // namespace janus
