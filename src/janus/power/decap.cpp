#include "janus/power/decap.hpp"

#include <algorithm>

namespace janus {
namespace {

// A node is a hotspot when its IR drop exceeds this fraction of VDD.
constexpr double kHotspotDropFraction = 0.05;

}  // namespace

std::vector<Hotspot> find_hotspots(const IrDropReport& rep) {
    std::vector<Hotspot> out;
    const double limit = kHotspotDropFraction * rep.vdd;
    for (std::size_t r = 0; r < rep.rows; ++r) {
        for (std::size_t c = 0; c < rep.cols; ++c) {
            const double drop = rep.drop_at(c, r);
            if (drop > limit) out.push_back(Hotspot{c, r, drop});
        }
    }
    std::sort(out.begin(), out.end(),
              [](const Hotspot& a, const Hotspot& b) { return a.drop_v > b.drop_v; });
    return out;
}

DecapResult insert_decaps(PowerGrid& grid, const DecapOptions& opts) {
    // Decap pF that halves the effective transient demand of one node.
    constexpr double kHalvingPf = 10.0;

    DecapResult res;
    res.before = grid.solve();
    res.initial_hotspots = find_hotspots(res.before);

    // Accumulated decap per node (pF).
    std::vector<double> decap_pf(grid.cols() * grid.rows(), 0.0);
    IrDropReport current = res.before;

    while (res.decap_steps_used < opts.max_steps) {
        const auto hs = find_hotspots(current);
        if (hs.empty()) break;
        const Hotspot& worst = hs.front();
        const std::size_t k = worst.row * grid.cols() + worst.col;

        // Relief before/after adding this decap step; the grid current is
        // scaled by the *incremental* relief so repeated insertion at one
        // node keeps helping but with diminishing returns.
        const double c_old = decap_pf[k];
        const double c_new = c_old + opts.decap_pf_per_step;
        const double relief_old = c_old / (c_old + kHalvingPf);
        const double relief_new = c_new / (c_new + kHalvingPf);
        const double remaining_old = 1.0 - relief_old;
        const double remaining_new = 1.0 - relief_new;
        const double demand = grid.current_at(worst.col, worst.row);
        // demand currently reflects remaining_old of the raw draw.
        const double raw = remaining_old > 0 ? demand / remaining_old : demand;
        grid.add_current(worst.col, worst.row, raw * (remaining_new - remaining_old));
        decap_pf[k] = c_new;
        res.decap_total_pf += opts.decap_pf_per_step;
        ++res.decap_steps_used;

        current = grid.solve();
    }
    res.after = current;
    res.remaining_hotspots = find_hotspots(current);
    return res;
}

}  // namespace janus
