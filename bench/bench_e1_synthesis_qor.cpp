/// E1 (Domic): "in the last ten years we have improved advanced RTL
/// synthesis results by 30% in terms of area — incidentally, we have also
/// improved performance, and power by approximately the same amount."
///
/// Reproduction: the decade-ago baseline is a naive 1:1 AND/INV mapping
/// with no optimization; "advanced synthesis" is the JanusEDA pipeline
/// (strashing, balancing, Espresso-driven refactoring, phase/permutation-
/// matched technology mapping). Rows report area / delay / power for both
/// on each design; the shape to hold is a ~25-35% geomean improvement.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "janus/logic/aig.hpp"
#include "janus/logic/aig_rewrite.hpp"
#include "janus/logic/tech_map.hpp"
#include "janus/power/power_model.hpp"
#include "janus/timing/sta.hpp"
#include "janus/util/stats.hpp"

using namespace janus;

int main() {
    bench::banner("E1 bench_e1_synthesis_qor", "Antun Domic (Synopsys)",
                  "advanced synthesis improves area ~30%, perf/power similarly");
    const auto lib = bench::make_lib();
    const auto node = *find_node("28nm");

    struct Case {
        std::string name;
        Netlist nl;
    };
    std::vector<Case> cases;
    cases.push_back({"adder16", generate_adder(lib, 16)});
    cases.push_back({"mult6", generate_multiplier(lib, 6)});
    cases.push_back({"cmp24", generate_comparator(lib, 24)});
    cases.push_back({"parity32", generate_parity(lib, 32)});
    for (const std::uint64_t seed : {101ull, 202ull, 303ull}) {
        GeneratorConfig cfg;
        cfg.num_gates = 800;
        cfg.num_inputs = 24;
        cfg.seed = seed;
        cfg.xor_fraction = 0.15;
        cases.push_back({"rand" + std::to_string(seed), generate_random(lib, cfg)});
    }

    std::printf("%-12s %10s %10s %7s %9s %9s %7s %8s %8s %7s\n", "design",
                "area_b", "area_o", "d_area", "delay_b", "delay_o", "d_dly",
                "pwr_b", "pwr_o", "d_pwr");
    std::vector<double> area_ratio, delay_ratio, power_ratio;
    for (const Case& c : cases) {
        const Aig raw = Aig::from_netlist(c.nl).cleanup();
        const Netlist base = naive_map(raw, lib);
        const Netlist opt = tech_map(optimize(raw, 4), lib);

        const auto qor = [&](const Netlist& nl) {
            const TimingReport tr = run_sta(nl);
            const PowerReport pr = estimate_power(nl, node);
            return std::tuple{nl.total_area(), tr.critical_delay_ps, pr.total_mw()};
        };
        const auto [ab, db, pb] = qor(base);
        const auto [ao, d_o, po] = qor(opt);
        area_ratio.push_back(ao / ab);
        delay_ratio.push_back(d_o / db);
        power_ratio.push_back(po / pb);
        std::printf("%-12s %10.0f %10.0f %6.1f%% %9.0f %9.0f %6.1f%% %8.3f %8.3f %6.1f%%\n",
                    c.name.c_str(), ab, ao, 100 * (1 - ao / ab), db, d_o,
                    100 * (1 - d_o / db), pb, po, 100 * (1 - po / pb));
    }
    const double ga = 1 - geometric_mean(area_ratio);
    const double gd = 1 - geometric_mean(delay_ratio);
    const double gp = 1 - geometric_mean(power_ratio);
    std::printf("\ngeomean improvement: area %.1f%%, delay %.1f%%, power %.1f%%\n",
                100 * ga, 100 * gd, 100 * gp);
    std::printf("paper claim:         area ~30%%, performance ~30%%, power ~30%%\n\n");
    bool ok = bench::shape_check("area improves by >= 20%", ga >= 0.20);
    ok &= bench::shape_check("delay improves", gd > 0.0);
    ok &= bench::shape_check("power improves by >= 20%", gp >= 0.20);
    return ok ? 0 : 1;
}
