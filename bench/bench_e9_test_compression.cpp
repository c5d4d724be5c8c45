/// E9 (Sawicki): "high-compression DFT technologies will be targeted at
/// low-pin-count test, helping to enable lower cost packaging."
///
/// Reproduction: a 50k-cell scan design tested flat (one tester pin pair
/// per chain) versus through an EDT-style linear decompressor with 1-8
/// channels. Rows report tester pins, package cost, test cost, achieved
/// compression, and cube-encoding success at realistic care-bit density.
/// The shape: compression slashes pins and package/test cost while
/// encoding keeps succeeding until care bits approach channel capacity.

#include <cstdio>
#include <set>

#include "bench_common.hpp"
#include "janus/dft/compression.hpp"
#include "janus/dft/test_cost.hpp"
#include "janus/util/rng.hpp"

using namespace janus;

namespace {

/// Encoding success rate over random cubes at the given care density.
double encode_success(const LinearDecompressor& dec, double care_density,
                      int trials, Rng& rng) {
    int ok = 0;
    const auto cells = dec.scan_cells();
    const auto ncare = static_cast<std::size_t>(care_density * static_cast<double>(cells));
    for (int t = 0; t < trials; ++t) {
        TestCube cube;
        std::set<std::uint32_t> chosen;
        while (chosen.size() < ncare) {
            chosen.insert(static_cast<std::uint32_t>(rng.next_below(cells)));
        }
        for (const auto c : chosen) {
            cube.care_cells.push_back(c);
            cube.care_values.push_back(rng.next_bool());
        }
        if (dec.encode(cube)) ++ok;
    }
    return static_cast<double>(ok) / trials;
}

}  // namespace

int main() {
    bench::banner("E9 bench_e9_test_compression", "Joe Sawicki (Mentor)",
                  "compression DFT enables low-pin-count test, cheaper packages");
    const int scan_cells = 50000;
    const int internal_chains = 64;
    Rng rng(77);

    std::printf("%-10s %9s %6s %10s %11s %11s %11s %9s\n", "config", "channels",
                "pins", "ratio", "pkg_usd", "test_usd", "total_usd", "enc_ok");
    TestCostReport flat_cost;
    double flat_pins = 0;
    bool costs_fall = true, pins_fall = true;
    double prev_total = 1e18;
    for (const int channels : {0, 8, 4, 2, 1}) {  // 0 = flat (no compression)
        TestArchitecture arch;
        arch.scan_chains = internal_chains;
        arch.scan_cells_total = scan_cells;
        arch.compression = channels > 0;
        arch.channels = std::max(1, channels);
        TestCostOptions copts;
        copts.patterns = 1500;
        const auto cost = evaluate_test_cost(arch, copts);

        double ratio = 1.0;
        double enc = 1.0;
        if (channels > 0) {
            const LinearDecompressor dec(scan_cells, channels, internal_chains,
                                         99);
            ratio = dec.compression_ratio();
            enc = encode_success(dec, 0.01, 10, rng);  // 1% care bits
        }
        std::printf("%-10s %9d %6d %10.1f %11.3f %11.4f %11.4f %8.0f%%\n",
                    channels == 0 ? "flat" : "EDT", channels, cost.tester_pins,
                    ratio, cost.package_cost_usd, cost.tester_cost_per_part_usd,
                    cost.total_cost_usd, 100.0 * enc);
        if (channels == 0) {
            flat_cost = cost;
            flat_pins = cost.tester_pins;
            prev_total = cost.total_cost_usd;
        } else {
            costs_fall &= (cost.total_cost_usd <= prev_total * 1.001);
            pins_fall &= (cost.tester_pins < flat_pins);
        }
    }

    // Encoding saturation: success collapses once care bits exceed the
    // channel-bit budget.
    const LinearDecompressor tight(2000, 1, 50, 5);  // 40 channel bits
    const double easy = encode_success(tight, 0.005, 20, rng);   // 10 care bits
    const double hard = encode_success(tight, 0.05, 20, rng);    // 100 care bits
    std::printf("\nencoding success vs care density (1 channel, 40 bits):"
                " 0.5%% -> %.0f%%, 5%% -> %.0f%%\n\n",
                100 * easy, 100 * hard);
    bool ok = bench::shape_check("compression cuts tester pins", pins_fall);
    ok &= bench::shape_check("total test+package cost falls with compression",
                             costs_fall);
    ok &= bench::shape_check("sparse cubes encode reliably", easy >= 0.9);
    ok &= bench::shape_check("encoding fails past channel capacity", hard <= 0.1);
    return ok ? 0 : 1;
}
