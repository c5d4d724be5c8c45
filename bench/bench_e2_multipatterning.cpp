/// E2 (Domic): "starting at 20 nanometers, it has become impossible to
/// draw the copper interconnects of an IC without double-, triple-, or
/// even quadruple-patterning. Without EUV, 5 nanometers could require
/// octuple-patterning; multi-patterning has allowed going beyond the
/// minimum single-patterning pitch of approximately 80 nanometers."
///
/// Reproduction: dense routed-layer layouts generated at decreasing metal
/// pitch, decomposed with k = 1, 2 (+stitches), 3, 4, 8 masks under an
/// 80 nm same-mask spacing. The shape: single patterning collapses below
/// ~80 nm pitch, and the required mask count rises as pitch shrinks.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "janus/route/multipattern.hpp"

using namespace janus;

int main() {
    bench::banner("E2 bench_e2_multipatterning", "Antun Domic (Synopsys)",
                  "pitch below ~80 nm needs DP/TP/QP; 5 nm-class needs more");
    const double spacing = 80.0;  // single-exposure same-mask spacing (nm)
    const std::vector<double> pitches = {160, 120, 100, 80, 64, 50, 40, 32, 24};
    const std::vector<int> masks = {1, 2, 3, 4, 8};

    std::printf("%-9s", "pitch_nm");
    for (const int k : masks) std::printf("  k=%d:conf/stitch", k);
    std::printf("  min_k_ok\n");

    std::vector<int> min_k(pitches.size(), -1);
    for (std::size_t pi = 0; pi < pitches.size(); ++pi) {
        const double pitch = pitches[pi];
        const auto layout =
            make_dense_layout(14, 6000, pitch, pitch * 0.5, 0.25, 42);
        std::printf("%-9.0f", pitch);
        for (const int k : masks) {
            MplOptions opts;
            opts.num_masks = k;
            opts.same_mask_spacing_nm = spacing;
            opts.allow_stitches = (k == 2);
            opts.min_stitch_half_nm = pitch;
            const MplResult res = decompose(layout, opts);
            std::printf("  %6zu/%-6zu", res.unresolved_conflicts, res.num_stitches);
            if (res.success() && min_k[pi] < 0) min_k[pi] = k;
        }
        std::printf("  %d\n", min_k[pi]);
    }

    std::printf("\npaper claim: single patterning to ~80 nm pitch; below that\n"
                "double/triple/quadruple; extreme scaling needs yet more masks.\n\n");
    // Shape checks: at generous pitch k=1 works; requirements monotone.
    bool monotone = true;
    for (std::size_t i = 1; i < pitches.size(); ++i) {
        if (min_k[i] > 0 && min_k[i - 1] > 0 && min_k[i] < min_k[i - 1]) {
            monotone = false;
        }
    }
    bool ok = bench::shape_check("single patterning suffices at >= 160 nm pitch",
                                 min_k.front() == 1);
    ok &= bench::shape_check("below 80 nm pitch single patterning fails",
                             [&] {
                                 for (std::size_t i = 0; i < pitches.size(); ++i) {
                                     if (pitches[i] < 80 && min_k[i] == 1) return false;
                                 }
                                 return true;
                             }());
    ok &= bench::shape_check("required mask count never decreases as pitch shrinks",
                             monotone);
    ok &= bench::shape_check("multi-patterning recovers what single patterning cannot",
                             [&] {
                                 for (std::size_t i = 0; i < pitches.size(); ++i) {
                                     if (min_k[i] > 1) return true;
                                 }
                                 return false;
                             }());
    return ok ? 0 : 1;
}
