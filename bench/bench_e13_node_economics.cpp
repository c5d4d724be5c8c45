/// E13 (Domic): "the pace at which emerging technology nodes are adopted
/// is getting asymmetric, as more than 90% of design starts are happening
/// at 32/28 nanometers and above, and 180 nanometers is by far the most
/// 'designed' technology node, with more than 25% of the total design
/// starts every year. This won't change significantly over the next
/// decade." (Sawicki: IoT "does not require the next technology node".)
///
/// Reproduction: a techno-economic model (NRE + mask set + yielded wafer
/// cost) chooses the cheapest feasible node for each design in a sampled
/// population matching the 2016 industry mix. The shape: >90% of starts
/// land at 28 nm and above, 180 nm takes the largest share (>25%), and
/// only high-volume high-performance designs justify advanced nodes.

#include <cstdio>

#include "bench_common.hpp"
#include "janus/sip/node_economics.hpp"

using namespace janus;

int main() {
    bench::banner("E13 bench_e13_node_economics", "Domic / Sawicki",
                  ">90% of design starts at 32/28nm+; 180nm >25% of starts");

    // Per-scenario view: where does the optimum sit?
    std::printf("%-28s %10s %12s %12s\n", "scenario", "best_node",
                "unit_usd", "nre_usd");
    struct Scenario {
        const char* name;
        DesignScenario s;
    };
    Scenario scenarios[4];
    scenarios[0] = {"IoT sensor (2M tr, 50k u)", {2, 5e4, 0.1, 100}};
    scenarios[1] = {"MCU (15M tr, 1M u)", {15, 1e6, 0.3, 300}};
    scenarios[2] = {"set-top SoC (200M tr, 5M u)", {200, 5e6, 0.8, 2000}};
    scenarios[3] = {"mobile AP (2B tr, 100M u)", {2000, 1e8, 1.8, 3000}};
    for (const auto& sc : scenarios) {
        const NodeCost best = best_node(sc.s);
        std::printf("%-28s %10s %12.3f %12.3f\n", sc.name,
                    best.feasible ? best.node.c_str() : "none",
                    best.unit_cost_usd, best.nre_per_unit_usd);
    }

    // Population view.
    const auto shares = design_start_distribution(4000, 2016);
    std::printf("\n%-8s %8s\n", "node", "share");
    double mature = 0, advanced = 0, node180 = 0, max_share = 0;
    std::string max_node;
    for (const auto& s : shares) {
        std::printf("%-8s %7.1f%%\n", s.node.c_str(), 100 * s.share);
        const auto n = find_node(s.node);
        if (n->feature_nm >= 28) {
            mature += s.share;
        } else {
            advanced += s.share;
        }
        if (s.node == "180nm") node180 = s.share;
        if (s.share > max_share) {
            max_share = s.share;
            max_node = s.node;
        }
    }
    std::printf("\nstarts at 32/28nm and above: %.1f%% (paper: >90%%)\n",
                100 * mature);
    std::printf("180nm share: %.1f%% (paper: >25%%), most designed node: %s\n\n",
                100 * node180, max_node.c_str());
    bool ok = bench::shape_check(">90% of design starts at 28nm and above", mature > 0.9);
    ok &= bench::shape_check("180nm takes >25% of starts", node180 > 0.25);
    ok &= bench::shape_check("180nm is the most designed node", max_node == "180nm");
    ok &= bench::shape_check("advanced nodes only for huge high-volume designs",
                             advanced < 0.10);
    return ok ? 0 : 1;
}
