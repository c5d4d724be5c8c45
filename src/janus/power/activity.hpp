#pragma once
/// \file activity.hpp
/// Switching-activity estimation: static probabilities and toggle rates
/// propagated through the netlist under the standard spatial-independence
/// assumption. Feeds the power model.

#include <vector>

#include "janus/netlist/netlist.hpp"

namespace janus {

/// Per-net activity data (indexed by NetId).
struct ActivityReport {
    std::vector<double> probability;  ///< P(net == 1)
    std::vector<double> toggle_rate;  ///< expected toggles per clock cycle
};

struct ActivityOptions {
    double pi_toggle_rate = 0.2;   ///< toggles/cycle at primary inputs
};

/// Propagates probabilities exactly per gate (exhaustive over <=4 inputs,
/// independence assumed across inputs) and toggle rates via Boolean
/// differences.
ActivityReport estimate_activity(const Netlist& nl, const ActivityOptions& opts = {});

}  // namespace janus
