#pragma once
/// \file test_cost.hpp
/// Manufacturing test economics: test time from pattern counts and scan
/// architecture, tester pin requirements, and a package cost model that
/// rewards low-pin-count test (E9).

namespace janus {

struct TestArchitecture {
    int scan_chains = 8;
    int scan_cells_total = 10000;
    int channels = 8;        ///< tester data pins (in + out shared count)
    bool compression = false;
    double compression_ratio = 1.0;  ///< effective scan-data reduction
    double shift_mhz = 50.0;
};

struct TestCostReport {
    double test_time_ms = 0;
    int tester_pins = 0;        ///< scan data pins + clock/control
    double tester_cost_per_part_usd = 0;
    double package_cost_usd = 0;
    double total_cost_usd = 0;
};

struct TestCostOptions {
    int patterns = 1000;
};

/// Evaluates the test cost of an architecture.
TestCostReport evaluate_test_cost(const TestArchitecture& arch,
                                  const TestCostOptions& opts = {});

}  // namespace janus
