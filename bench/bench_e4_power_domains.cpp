/// E4 (Domic): "'Design for power' was an enabler that prevented massive
/// amounts of dark silicon ... Literally, scores of voltage/supply/
/// shutdown domains even at 180 nanometers are common, providing
/// incredibly power savvy solutions."
///
/// Reproduction: one design partitioned into an increasing number of
/// shutdown-capable domains (duty-cycled subsystems) plus a low-voltage
/// domain sweep. The shape: total power falls steeply with the first few
/// domains, flattens as isolation/level-shifter overhead grows, and the
/// technique pays off even at 180 nm.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "janus/power/power_intent.hpp"

using namespace janus;

namespace {

/// Splits instances round-robin into `k` domains with the given duty.
PowerIntent make_intent(const Netlist& nl, const TechnologyNode& node, int k,
                        double duty) {
    PowerIntent intent(nl, node.vdd);
    for (int d = 1; d < k; ++d) {
        PowerDomain dom;
        dom.name = "PD" + std::to_string(d);
        dom.voltage = node.vdd;
        dom.can_shutdown = true;
        dom.on_fraction = duty;
        for (InstId i = 0; i < nl.num_instances(); ++i) {
            if (static_cast<int>(i % static_cast<InstId>(k)) == d) {
                dom.members.push_back(i);
            }
        }
        intent.add_domain(dom);
    }
    return intent;
}

}  // namespace

int main() {
    bench::banner("E4 bench_e4_power_domains", "Antun Domic (Synopsys)",
                  "scores of shutdown domains slash power, even at 180 nm");

    bool ok = true;
    for (const char* node_name : {"180nm", "28nm"}) {
        const auto node = *find_node(node_name);
        const auto lib = bench::make_lib(node_name);
        GeneratorConfig cfg;
        cfg.num_gates = 1200;
        cfg.num_flops = 100;
        cfg.seed = 4;
        const Netlist nl = generate_random(lib, cfg);

        std::printf("\n--- node %s (duty cycle 25%% for shutdown domains) ---\n",
                    node_name);
        std::printf("%8s %10s %10s %10s %8s %8s %9s\n", "domains", "total_mW",
                    "leak_mW", "dyn_mW", "iso", "shift", "saving");
        double base_total = 0;
        std::vector<double> totals;
        for (const int k : {1, 2, 4, 8, 16, 32}) {
            const PowerIntent intent = make_intent(nl, node, k, 0.25);
            const PowerReport rep = intent.estimate(nl, node);
            const double total = rep.total_mw();
            if (k == 1) base_total = total;
            totals.push_back(total);
            std::printf("%8d %10.4f %10.4f %10.4f %8zu %8zu %8.1f%%\n", k, total,
                        rep.leakage_mw, rep.switching_mw + rep.internal_mw,
                        intent.isolation_cells_needed(nl),
                        intent.level_shifters_needed(nl),
                        100.0 * (1.0 - total / base_total));
        }
        const double best_saving = 100.0 * (1.0 - totals.back() / totals.front());
        std::printf("max saving at %s: %.1f%%\n", node_name, best_saving);
        ok &= bench::shape_check("power falls monotonically with domain count",
                                 std::is_sorted(totals.rbegin(), totals.rend()));
        ok &= bench::shape_check("shutdown domains save >= 25% of total power",
                                 best_saving >= 25.0);
        const double step_first = totals[0] - totals[1];
        const double step_last = totals[totals.size() - 2] - totals.back();
        ok &= bench::shape_check("diminishing returns (first step > last step)",
                                 step_first > step_last);
    }

    // Voltage-domain sweep: the panel's "voltage scaling" knob.
    const auto node = *find_node("90nm");
    const auto lib = bench::make_lib("90nm");
    GeneratorConfig cfg;
    cfg.num_gates = 800;
    const Netlist nl = generate_random(lib, cfg);
    std::printf("\n--- 90 nm voltage-domain sweep (whole design) ---\n");
    std::printf("%8s %10s\n", "vdd", "total_mW");
    double prev = 1e9;
    bool monotone = true;
    for (const double scale : {1.0, 0.9, 0.8, 0.7}) {
        PowerIntent intent(nl, node.vdd);
        PowerDomain dom;
        dom.name = "LV";
        dom.voltage = node.vdd * scale;
        for (InstId i = 0; i < nl.num_instances(); ++i) dom.members.push_back(i);
        intent.add_domain(dom);
        const double total = intent.estimate(nl, node).total_mw();
        std::printf("%8.2f %10.4f\n", node.vdd * scale, total);
        monotone &= (total <= prev);
        prev = total;
    }
    ok &= bench::shape_check("power falls with supply voltage", monotone);
    return ok ? 0 : 1;
}
