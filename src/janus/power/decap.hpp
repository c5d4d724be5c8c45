#pragma once
/// \file decap.hpp
/// Hotspot detection and automatic decoupling-capacitor insertion — the
/// "on-the-fly introduction of decoupling cells" panelist Rossi asks
/// tools to take care of (experiment E7).
///
/// Model: a decap placed at a grid node buffers the high-frequency part
/// of the local demand; the static solver then sees the node's current
/// reduced by the relief factor  C / (C + C50)  where C50 is the decap
/// capacitance that halves the local transient demand. First-order, but
/// it exercises the identify-insert-reverify loop a real flow runs.

#include <vector>

#include "janus/power/power_grid.hpp"

namespace janus {

struct DecapOptions {
    /// Decap capacitance installed per insertion step (pF).
    double decap_pf_per_step = 10.0;
    /// Insertion budget: maximum decap steps overall.
    int max_steps = 256;
};

struct Hotspot {
    std::size_t col = 0, row = 0;
    double drop_v = 0.0;
};

struct DecapResult {
    std::vector<Hotspot> initial_hotspots;
    std::vector<Hotspot> remaining_hotspots;
    int decap_steps_used = 0;
    double decap_total_pf = 0.0;
    IrDropReport before;
    IrDropReport after;
};

/// Finds all hotspot nodes of a solved grid: those whose IR drop exceeds
/// 5% of VDD, worst first.
std::vector<Hotspot> find_hotspots(const IrDropReport& rep);

/// Iteratively inserts decap at the worst hotspot until none remain or
/// the budget is exhausted. The grid is modified (currents relieved).
DecapResult insert_decaps(PowerGrid& grid, const DecapOptions& opts = {});

}  // namespace janus
