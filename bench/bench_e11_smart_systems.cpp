/// E11 (Macii): "A big step towards effective, large-scale design of smart
/// systems would be changing the design of such systems from an expert
/// methodology to a mainstream (automated, integrated, reliable, and
/// repeatable) design methodology, so that design cost is reduced,
/// time-to-market is shortened ... The ability of exchanging design
/// parameters between components from different technologies, packages
/// and architectural templates in a holistic co-design framework."
///
/// Reproduction: three IoT mission profiles designed (a) ad-hoc, each
/// domain expert choosing locally, integration chosen last; (b) via the
/// holistic co-design DSE over the full component x integration space.
/// Plus the methodology cost model. The shape: holistic design meets
/// missions the ad-hoc route misses, Pareto-dominates it when both
/// succeed, and the automated methodology halves cost and schedule.

#include <cstdio>

#include "bench_common.hpp"
#include "janus/sip/dse.hpp"
#include "janus/sip/methodology.hpp"

using namespace janus;

namespace {

const char* style_name(IntegrationStyle s) {
    switch (s) {
        case IntegrationStyle::DiscretePcb: return "PCB";
        case IntegrationStyle::SiP: return "SiP";
        case IntegrationStyle::MonolithicSoC: return "SoC";
    }
    return "?";
}

}  // namespace

int main() {
    bench::banner("E11 bench_e11_smart_systems", "Enrico Macii (PoliTo)",
                  "holistic automated co-design vs expert ad-hoc methodology");

    struct Mission {
        const char* name;
        MissionProfile profile;
    };
    Mission missions[3];
    missions[0].name = "wearable";
    missions[0].profile.sample_interval_s = 10;
    missions[0].profile.report_interval_s = 600;
    missions[0].profile.required_lifetime_days = 30;
    missions[0].profile.required_range_m = 10;
    missions[0].profile.max_volume_mm3 = 3000;
    missions[0].profile.max_cost_usd = 15;
    missions[1].name = "agri-field";
    missions[1].profile.sample_interval_s = 300;
    missions[1].profile.report_interval_s = 3600;
    missions[1].profile.required_lifetime_days = 730;
    missions[1].profile.required_range_m = 3000;
    missions[1].profile.max_volume_mm3 = 15000;
    missions[1].profile.max_cost_usd = 25;
    missions[2].name = "asset-tag";
    missions[2].profile.sample_interval_s = 60;
    missions[2].profile.report_interval_s = 1800;
    missions[2].profile.required_lifetime_days = 365;
    missions[2].profile.required_range_m = 50;
    missions[2].profile.max_volume_mm3 = 2500;
    missions[2].profile.max_cost_usd = 8;

    int holistic_wins = 0, adhoc_meets = 0, holistic_meets = 0;
    for (const Mission& m : missions) {
        std::printf("\n--- mission %s ---\n", m.name);
        const DsePoint adhoc = adhoc_design(m.profile);
        std::printf("ad-hoc:   %-4s cost $%.2f vol %.0f mm3 life %.0f d -> %s\n",
                    style_name(adhoc.style), adhoc.integration.total_cost_usd,
                    adhoc.integration.volume_mm3, adhoc.metrics.lifetime_days,
                    adhoc.metrics.meets_requirements
                        ? "MEETS"
                        : adhoc.metrics.failure_reason.c_str());
        adhoc_meets += adhoc.metrics.meets_requirements;

        const DseResult dse = holistic_dse(m.profile);
        std::printf("holistic: %zu/%zu feasible, %zu Pareto points\n",
                    dse.feasible.size(), dse.evaluated, dse.pareto.size());
        for (std::size_t i = 0; i < std::min<std::size_t>(3, dse.pareto.size()); ++i) {
            const DsePoint& p = dse.pareto[i];
            std::printf("  pareto[%zu]: %-4s cost $%.2f vol %.0f mm3 life %.0f d\n",
                        i, style_name(p.style), p.integration.total_cost_usd,
                        p.integration.volume_mm3, p.metrics.lifetime_days);
        }
        if (!dse.pareto.empty()) ++holistic_meets;
        if (!dse.pareto.empty() &&
            (!adhoc.metrics.meets_requirements ||
             [&] {
                 for (const DsePoint& p : dse.pareto) {
                     if (p.integration.total_cost_usd <=
                         adhoc.integration.total_cost_usd) {
                         return true;
                     }
                 }
                 return false;
             }())) {
            ++holistic_wins;
        }
    }

    const auto expert = expert_methodology();
    const auto automated = automated_methodology();
    std::printf("\n--- methodology cost model ---\n");
    std::printf("expert:    %.0f weeks TTM, $%.0fk design cost\n",
                expert.time_to_market_weeks, expert.design_cost_usd / 1e3);
    std::printf("automated: %.0f weeks TTM, $%.0fk design cost\n\n",
                automated.time_to_market_weeks, automated.design_cost_usd / 1e3);

    bool ok = bench::shape_check("holistic co-design solves every mission",
                                 holistic_meets == 3);
    ok &= bench::shape_check("holistic wins (meets where ad-hoc fails, or cheaper)",
                             holistic_wins == 3);
    ok &= bench::shape_check("automated methodology at least halves time-to-market",
                             automated.time_to_market_weeks <
                                 0.5 * expert.time_to_market_weeks);
    ok &= bench::shape_check("automated methodology cuts design cost",
                             automated.design_cost_usd < expert.design_cost_usd);
    return ok ? 0 : 1;
}
