#include "janus/dft/test_cost.hpp"

#include <algorithm>
#include <cmath>

namespace janus {

TestCostReport evaluate_test_cost(const TestArchitecture& arch,
                                  const TestCostOptions& opts) {
    constexpr double kTesterUsdPerSecond = 0.05;  // amortized ATE cost
    // Package cost: base + per-pin increment (wirebond-class model).
    constexpr double kPackageBaseUsd = 0.05;
    constexpr double kPackagePerPinUsd = 0.004;
    constexpr int kFunctionalPins = 24;  // non-test pins the package needs anyway

    TestCostReport rep;
    // Shift cycles per pattern: longest chain length; with compression the
    // tester feeds channels instead of chains, shrinking data volume by
    // the compression ratio but shifting the same internal cycles.
    const int chain_len =
        (arch.scan_cells_total + arch.scan_chains - 1) / std::max(1, arch.scan_chains);
    const double cycles_per_pattern = static_cast<double>(chain_len);
    // Without compression the tester must drive one pin per chain; with
    // compression it drives only the channels.
    const int data_pins = arch.compression ? arch.channels : arch.scan_chains;
    // Data-limited shift rate: if the tester streams less data per cycle
    // (fewer pins), patterns take the same internal cycles; the win is the
    // pin count, plus shorter chains are enabled by internal fanout.
    const double seconds =
        static_cast<double>(opts.patterns) * cycles_per_pattern /
        (arch.shift_mhz * 1e6);
    rep.test_time_ms = seconds * 1e3;
    rep.tester_pins = 2 * data_pins + 3;  // in+out per data pin, clk/se/reset
    rep.tester_cost_per_part_usd = seconds * kTesterUsdPerSecond *
                                   (1.0 + 0.02 * rep.tester_pins);
    const int package_pins = kFunctionalPins + rep.tester_pins;
    rep.package_cost_usd =
        kPackageBaseUsd + kPackagePerPinUsd * package_pins;
    rep.total_cost_usd = rep.tester_cost_per_part_usd + rep.package_cost_usd;
    return rep;
}

}  // namespace janus
