#include "janus/place/congestion.hpp"

#include <algorithm>
#include <cmath>

#include "janus/place/net_bbox.hpp"

namespace janus {

CongestionMap estimate_congestion(const Netlist& nl, const PlacementArea& area,
                                  const TechnologyNode& node,
                                  const CongestionOptions& opts) {
    constexpr std::size_t kBins = 24;  // bins per axis
    // Tracks per bin per layer derive from bin size / pitch; this factor
    // derates for blockages and power routing.
    constexpr double kCapacityDerate = 0.5;

    CongestionMap m;
    m.bins = kBins;
    m.demand.assign(kBins * kBins, 0.0);
    m.capacity.assign(kBins * kBins, 0.0);

    const double bin_w = static_cast<double>(area.die.width()) / kBins;
    const double bin_h = static_cast<double>(area.die.height()) / kBins;
    // Tracks crossing a bin: bin dimension / pitch, summed over layers
    // (half horizontal, half vertical), derated.
    const double pitch_nm = node.metal_pitch_nm;
    const double cap_per_bin = kCapacityDerate * opts.routing_layers * 0.5 *
                               (bin_w / pitch_nm + bin_h / pitch_nm);
    std::fill(m.capacity.begin(), m.capacity.end(), cap_per_bin);

    const auto bin_index = [&](double v, double lo, double size, std::size_t n) {
        const double t = (v - lo) / size;
        return std::min(n - 1, static_cast<std::size_t>(std::max(0.0, t)));
    };

    // Net bounding boxes over placed pins, via the shared per-net cache
    // (same structure the SA placer maintains incrementally; here it is
    // built once and read out). Pads are excluded: congestion models
    // cell-to-cell routing demand only.
    NetBBoxOptions bopts;
    bopts.with_pads = false;
    bopts.placed_only = true;
    const NetBBoxCache cache(nl, area, bopts);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        if (cache.degree(n) < 2) continue;
        const Rect bb = cache.bbox(n);
        const std::size_t x0 =
            bin_index(static_cast<double>(bb.lo.x), static_cast<double>(area.die.lo.x), bin_w, kBins);
        const std::size_t x1 =
            bin_index(static_cast<double>(bb.hi.x), static_cast<double>(area.die.lo.x), bin_w, kBins);
        const std::size_t y0 =
            bin_index(static_cast<double>(bb.lo.y), static_cast<double>(area.die.lo.y), bin_h, kBins);
        const std::size_t y1 =
            bin_index(static_cast<double>(bb.hi.y), static_cast<double>(area.die.lo.y), bin_h, kBins);
        // FLUTE-less estimate: wirelength = HPWL, spread uniformly over the
        // covered bins in units of "track-lengths per bin".
        const double wl_tracks =
            (static_cast<double>(bb.width()) + static_cast<double>(bb.height())) /
            std::max(1.0, 0.5 * (bin_w + bin_h));
        const double nbins = static_cast<double>((x1 - x0 + 1) * (y1 - y0 + 1));
        const double per_bin = wl_tracks / nbins;
        for (std::size_t by = y0; by <= y1; ++by) {
            for (std::size_t bx = x0; bx <= x1; ++bx) {
                m.demand[by * kBins + bx] += per_bin;
            }
        }
        m.total_demand += wl_tracks;
    }

    std::size_t over = 0;
    for (std::size_t k = 0; k < m.demand.size(); ++k) {
        const double util = m.capacity[k] > 0 ? m.demand[k] / m.capacity[k] : 0;
        if (util > 1.0) {
            ++over;
            m.max_overflow = std::max(m.max_overflow, util - 1.0);
        }
    }
    m.overflow_fraction = static_cast<double>(over) / static_cast<double>(m.demand.size());
    return m;
}

}  // namespace janus
