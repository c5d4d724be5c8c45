#pragma once
/// \file corners.hpp
/// Multi-corner timing: the same design analyzed at slow/typical/fast
/// process-voltage-temperature corners via delay derates. Signoff = worst
/// setup slack over slow corners and worst hold slack over fast corners.

#include <string>
#include <vector>

#include "janus/timing/sta.hpp"

namespace janus {

struct TimingCorner {
    std::string name;
    double delay_derate = 1.0;  ///< multiplies every gate/wire delay
};

/// The standard three-corner set (derates from typical foundry spreads).
std::vector<TimingCorner> standard_corners();

struct MultiCornerReport {
    /// Per-corner reports, same order as the input corners.
    std::vector<TimingReport> reports;
    double worst_setup_slack_ps = 0;
    std::string worst_setup_corner;
    double worst_hold_slack_ps = 0;
    std::string worst_hold_corner;
    bool signoff() const {
        return worst_setup_slack_ps >= 0 && worst_hold_slack_ps >= 0;
    }
};

/// Times every corner from one nominal analysis: a corner's derate k
/// scales each endpoint arrival (arrival x k), while the constraints
/// (period, setup, hold) stay as they are, so the per-corner reports
/// stay comparable.
MultiCornerReport run_multi_corner(const Netlist& nl, const StaOptions& base,
                                   const std::vector<TimingCorner>& corners =
                                       standard_corners());

}  // namespace janus
