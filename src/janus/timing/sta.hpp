#pragma once
/// \file sta.hpp
/// Static timing analysis. Timing paths start at primary inputs and flop
/// Q pins, and end at primary outputs and flop D pins. One topological
/// sweep computes arrivals; a reverse sweep computes requireds and slacks.

#include <string>
#include <vector>

#include "janus/netlist/netlist.hpp"
#include "janus/timing/delay_model.hpp"

namespace janus {

struct StaOptions {
    double clock_period_ps = 1000.0;
    double clk_to_q_ps = 20.0;
    double setup_ps = 15.0;
    double hold_ps = 5.0;
    WireModel wire;
    /// Worker threads for the level-parallel sweeps (1 = serial). Results
    /// are bit-identical for any value (docs/TIMING.md). The flow fills it
    /// from FlowParams::workers.
    int sta_workers = 1;
};

/// The summary of one analysis. Per-net arrivals, requireds and slacks are
/// not copied here: they belong to the TimingGraph that produced the report
/// (TimingGraph::arrivals() / requireds() / slacks()).
struct TimingReport {
    double wns_ps = 0.0;  ///< worst setup slack (positive = margin)
    double tns_ps = 0.0;  ///< total negative setup slack (sum over endpoints)
    /// Worst hold slack at flop D pins: min arrival - hold time. Negative
    /// means a short path races the clock (hold violation).
    double hold_wns_ps = 0.0;
    std::size_t hold_violations = 0;
    double critical_delay_ps = 0.0;
    /// Maximum clock frequency implied by the critical path (GHz).
    double fmax_ghz = 0.0;
    /// Endpoint net with the worst setup slack (kNoNet when the design has
    /// no endpoints). Ties keep the first endpoint in canonical order
    /// (primary outputs, then flop input pins).
    NetId worst_endpoint = kNoNet;
    /// Instances along the critical path, startpoint first.
    std::vector<InstId> critical_path;

    bool met() const { return wns_ps >= 0.0; }
    bool hold_met() const { return hold_wns_ps >= 0.0; }
};

/// Runs STA on a (possibly sequential) netlist.
TimingReport run_sta(const Netlist& nl, const StaOptions& opts = {});

/// Renders a short human-readable timing summary.
std::string format_timing_report(const Netlist& nl, const TimingReport& r);

}  // namespace janus
