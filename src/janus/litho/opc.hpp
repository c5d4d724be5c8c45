#pragma once
/// \file opc.hpp
/// Optical proximity correction. Rule-based OPC applies a fixed bias per
/// feature-width class; model-based OPC iterates simulate -> measure ->
/// move edges, the feedback loop production OPC runs at full-chip scale.

#include <vector>

#include "janus/litho/aerial_image.hpp"
#include "janus/litho/mask.hpp"

namespace janus {

/// Applies rule-based biases in place.
void rule_based_opc(std::vector<MaskFeature>& features, const OpticalModel& optics);

struct ModelOpcOptions {
    int iterations = 12;
    double max_bias_nm = 40.0;  ///< mask-rule limit on edge movement
    double nm_per_pixel = 2.0;
};

struct ModelOpcResult {
    EpeReport initial;
    EpeReport final;
    int iterations_run = 0;
};

/// Iterative model-based OPC: adjusts each feature's four edge biases to
/// drive the printed contour onto the target. Features are modified in
/// place.
ModelOpcResult model_based_opc(std::vector<MaskFeature>& features,
                               const OpticalModel& optics,
                               const ModelOpcOptions& opts = {});

/// Convenience: simulate and measure EPE of the current features.
EpeReport check_print(const std::vector<MaskFeature>& features,
                      const OpticalModel& optics, double nm_per_pixel = 2.0);

}  // namespace janus
