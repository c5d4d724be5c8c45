#pragma once
/// \file sizing.hpp
/// Timing-driven gate sizing: upsizes cells on critical paths to their
/// X2/X4 drive variants while the worst slack improves — the "do more
/// with less" optimization loop that complements synthesis.

#include <cstddef>
#include <vector>

#include "janus/netlist/netlist.hpp"
#include "janus/timing/sta.hpp"

namespace janus {

/// Resize passes before size_for_timing gives up; it stops earlier once
/// WNS is non-negative (timing met).
inline constexpr int kMaxSizingPasses = 8;

struct SizingOptions {
    StaOptions sta;
};

struct SizingResult {
    double wns_before_ps = 0;
    double wns_after_ps = 0;
    double delay_before_ps = 0;
    double delay_after_ps = 0;
    double area_before_um2 = 0;
    double area_after_um2 = 0;
    int cells_resized = 0;
    int passes = 0;
    /// Area change (um^2) contributed by each accepted pass; rolled-back
    /// passes contribute nothing.
    std::vector<double> area_delta_per_pass;
    /// Total instances re-evaluated by the incremental timing updates, over
    /// all passes (including rollback updates). Compare against
    /// passes * 2 * num_instances, the cost of the old full-STA loop.
    std::size_t timing_evals = 0;
};

/// Iteratively upsizes the most critical instances (in place). The loop
/// holds one TimingGraph and re-times each pass incrementally: resize the
/// critical-path cells, propagate through the affected cones, and keep the
/// pass only if the critical delay improved — O(cone) per pass instead of
/// the O(2 x design) full STA the loop used to pay. Each cell is bumped to
/// the smallest library variant with a strictly larger drive. Greedy and
/// safe: a pass that fails to improve is rolled back (cell by cell, through
/// the same incremental path) and iteration stops.
SizingResult size_for_timing(Netlist& nl, const SizingOptions& opts = {});

}  // namespace janus
