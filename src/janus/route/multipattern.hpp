#pragma once
/// \file multipattern.hpp
/// Multi-patterning layout decomposition: splitting one drawn layer onto
/// k masks so that same-mask shapes respect the (larger) single-exposure
/// spacing. Double patterning is 2-coloring with stitch insertion on odd
/// cycles; triple/quadruple use saturation-degree colouring. The panel:
/// "starting at 20 nm it has become impossible to draw the copper
/// interconnects without double-, triple-, or even quadruple-patterning"
/// (experiment E2).

#include <cstdint>
#include <vector>

#include "janus/util/geometry.hpp"

namespace janus {

/// One wire shape on the target layer (coordinates in nm).
struct WireShape {
    Rect rect;
    /// Shapes created by stitching refer to their original shape.
    int parent = -1;
    /// Electrical net id: same-net shapes that touch are one polygon and
    /// never conflict with each other (-1 = unique net).
    int net = -1;
};

struct MplOptions {
    int num_masks = 2;
    /// Same-mask spacing: shapes closer than this must go on different
    /// masks (193i single-exposure limit, default from the panel's 80 nm
    /// pitch => ~half-pitch spacing of 40 nm).
    double same_mask_spacing_nm = 40.0;
    bool allow_stitches = true;
    /// A shape can be stitched only if both halves are at least this long.
    double min_stitch_half_nm = 60.0;
};

struct MplResult {
    std::vector<WireShape> shapes;  ///< post-stitch shapes
    std::vector<int> color;         ///< mask per shape, -1 if uncolored
    std::size_t num_stitches = 0;
    /// Conflict edges whose two shapes ended on the same mask.
    std::size_t unresolved_conflicts = 0;
    bool success() const { return unresolved_conflicts == 0; }
};

/// Decomposes `shapes` onto `opts.num_masks` masks.
MplResult decompose(const std::vector<WireShape>& shapes, const MplOptions& opts);

/// Builds the conflict edge list (pairs of shape indices closer than the
/// same-mask spacing). Exposed for tests.
std::vector<std::pair<std::size_t, std::size_t>> conflict_edges(
    const std::vector<WireShape>& shapes, double spacing_nm);

/// Generates a dense routed-layer layout: `tracks` horizontal wires of
/// length `length_nm` at `pitch_nm`, broken into segments with random
/// jogs to adjacent tracks — the pattern that creates odd cycles.
std::vector<WireShape> make_dense_layout(int tracks, double length_nm,
                                         double pitch_nm, double width_nm,
                                         double jog_probability,
                                         std::uint64_t seed);

}  // namespace janus
