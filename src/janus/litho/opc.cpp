#include "janus/litho/opc.hpp"

#include <algorithm>
#include <cmath>

namespace janus {
namespace {

constexpr double kMarginNm = 120.0;  ///< mask raster margin around the features

}  // namespace

void rule_based_opc(std::vector<MaskFeature>& features, const OpticalModel& optics) {
    // Bias added to every edge of features narrower than 2*sigma (nm), and
    // to every edge of wide features.
    constexpr double kNarrowBiasNm = 8.0;
    constexpr double kWideBiasNm = 2.0;
    const double narrow_limit = 2.0 * optics.sigma_nm();
    for (MaskFeature& f : features) {
        const double w = static_cast<double>(
            std::min(f.target.width(), f.target.height()));
        const double bias = w < narrow_limit ? kNarrowBiasNm : kWideBiasNm;
        f.bias_left += bias;
        f.bias_right += bias;
        f.bias_top += bias;
        f.bias_bottom += bias;
    }
}

EpeReport check_print(const std::vector<MaskFeature>& features,
                      const OpticalModel& optics, double nm_per_pixel) {
    const MaskRaster raster(features, nm_per_pixel, kMarginNm);
    const PrintResult pr = simulate_print(raster, optics);
    const auto target = raster.rasterize_targets(features);
    return measure_epe(target, pr.printed, raster.width(), raster.height(),
                       nm_per_pixel);
}

namespace {

/// Printed interval (lo, hi) crossing `fixed` along one axis, nearest to
/// the expected interval; returns false if nothing printed on that line.
bool printed_interval(const PrintResult& pr, bool horizontal, int fixed,
                      int expected_lo, int expected_hi, int& lo, int& hi) {
    const int n = horizontal ? pr.width : pr.height;
    const auto at = [&](int i) {
        return horizontal
                   ? pr.printed[static_cast<std::size_t>(fixed) * pr.width + i] > 0.5
                   : pr.printed[static_cast<std::size_t>(i) * pr.width + fixed] > 0.5;
    };
    // Start from the middle of the expected interval and expand.
    const int mid = std::clamp((expected_lo + expected_hi) / 2, 0, n - 1);
    int seed = -1;
    for (int d = 0; d < n; ++d) {
        if (mid + d < n && at(mid + d)) {
            seed = mid + d;
            break;
        }
        if (mid - d >= 0 && at(mid - d)) {
            seed = mid - d;
            break;
        }
    }
    if (seed < 0) return false;
    lo = seed;
    while (lo > 0 && at(lo - 1)) --lo;
    hi = seed;
    while (hi + 1 < n && at(hi + 1)) ++hi;
    return true;
}

}  // namespace

ModelOpcResult model_based_opc(std::vector<MaskFeature>& features,
                               const OpticalModel& optics,
                               const ModelOpcOptions& opts) {
    constexpr double kGain = 0.6;  // fraction of measured EPE corrected per step
    ModelOpcResult res;
    res.initial = check_print(features, optics, opts.nm_per_pixel);

    for (int it = 0; it < opts.iterations; ++it) {
        ++res.iterations_run;
        const MaskRaster raster(features, opts.nm_per_pixel, kMarginNm);
        const PrintResult pr = simulate_print(raster, optics);

        for (MaskFeature& f : features) {
            // Pixel coordinates of the target rectangle.
            const auto px = [&](std::int64_t v, std::int64_t o) {
                return static_cast<int>(static_cast<double>(v - o) / opts.nm_per_pixel);
            };
            const int tx0 = px(f.target.lo.x, raster.origin().x);
            const int tx1 = px(f.target.hi.x, raster.origin().x);
            const int ty0 = px(f.target.lo.y, raster.origin().y);
            const int ty1 = px(f.target.hi.y, raster.origin().y);
            const int cy = std::clamp((ty0 + ty1) / 2, 0, pr.height - 1);
            const int cx = std::clamp((tx0 + tx1) / 2, 0, pr.width - 1);

            const auto nudge = [&](double& bias, double err_px) {
                bias += kGain * err_px * opts.nm_per_pixel;
                bias = std::clamp(bias, -opts.max_bias_nm, opts.max_bias_nm);
            };
            int lo = 0, hi = 0;
            if (printed_interval(pr, true, cy, tx0, tx1, lo, hi)) {
                nudge(f.bias_left, static_cast<double>(lo - tx0));
                nudge(f.bias_right, static_cast<double>(tx1 - hi));
            } else {
                // Feature vanished: push all edges out.
                nudge(f.bias_left, 2.0);
                nudge(f.bias_right, 2.0);
            }
            if (printed_interval(pr, false, cx, ty0, ty1, lo, hi)) {
                nudge(f.bias_bottom, static_cast<double>(lo - ty0));
                nudge(f.bias_top, static_cast<double>(ty1 - hi));
            } else {
                nudge(f.bias_bottom, 2.0);
                nudge(f.bias_top, 2.0);
            }
        }
    }
    res.final = check_print(features, optics, opts.nm_per_pixel);
    return res;
}

}  // namespace janus
