#pragma once
/// \file power_model.hpp
/// Design power estimation: switching (net) power, internal (cell) power,
/// leakage, and clock-tree power, parameterized by technology node.

#include "janus/netlist/technology.hpp"
#include "janus/power/activity.hpp"
#include "janus/timing/delay_model.hpp"

namespace janus {

struct PowerOptions {
    double frequency_mhz = 500.0;
    double vdd_override = 0.0;  ///< 0 = use the node's nominal Vdd
    WireModel wire;
};

struct PowerReport {
    double switching_mw = 0.0;  ///< net + input-pin charging power
    double internal_mw = 0.0;   ///< cell-internal short-circuit proxy
    double leakage_mw = 0.0;
    double clock_mw = 0.0;      ///< flop clock-pin load at full toggle
    double total_mw() const {
        return switching_mw + internal_mw + leakage_mw + clock_mw;
    }
    /// Per-instance dynamic power (mW), for hotspot mapping.
    std::vector<double> instance_dynamic_mw;
};

/// Estimates power at the given node. `activity` may be reused across
/// calls; pass nullptr to have it computed internally.
PowerReport estimate_power(const Netlist& nl, const TechnologyNode& node,
                           const PowerOptions& opts = {},
                           const ActivityReport* activity = nullptr);

}  // namespace janus
