#pragma once
/// \file tuner.hpp
/// The self-learning engine panelist Rossi asks for: a bandit that learns
/// across flow runs which parameter configuration gives consistent QoR,
/// instead of leaving the tuning to "the user figuring up how the
/// algorithms work" (E6). Arm pulls can be evaluated in parallel on a
/// WorkerTeam: decisions are made in waves with run-indexed RNG, so a
/// 4-worker sweep is bit-identical to the same sweep on one worker.

#include <cstdint>
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
    std::uint64_t seed = 7;
    /// Concurrent evaluations. 1 (with wave <= 1) selects the classic
    /// strictly-sequential epsilon-greedy path.
    int workers = 1;
    /// Arm decisions per scheduling wave; 0 derives it from `workers`.
    /// Within a wave every decision uses the statistics frozen at wave
    /// start plus an Rng seeded by mix_seed(seed, run_index) — which is
    /// what makes results independent of evaluation concurrency.
    int wave = 0;
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
/// the workload. With workers > 1 the callback must be safe to invoke
/// concurrently; the cost of a pull must depend only on (params,
/// run_index), which every deterministic flow evaluation satisfies.
TunerResult tune(const std::vector<TunerArm>& arms,
                 const std::function<double(const FlowParams&, int run_index)>& evaluate,
                 const TunerOptions& opts = {});

/// The default arm set: effort levels from "fast" to "thorough" plus two
/// deliberately unbalanced configurations.
std::vector<TunerArm> default_arms();

}  // namespace janus
