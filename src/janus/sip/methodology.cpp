#include "janus/sip/methodology.hpp"

#include <algorithm>

namespace janus {
namespace {

constexpr int kNumDomains = 4;            ///< sensing, RF, compute, power
constexpr double kDomainDesignWeeks = 8;  ///< per-domain design effort
constexpr double kHandoffWeeks = 3;       ///< manual transfer between domain tools
constexpr double kIntegrationIterationsExpert = 4;  ///< respins until domains agree
constexpr double kIntegrationIterationsAutomated = 1.2;
constexpr double kEngineerCostPerWeekUsd = 4000;
/// Fraction of per-domain effort an integrated flow automates away.
constexpr double kAutomationFactor = 0.45;

}  // namespace

MethodologyCost expert_methodology() {
    MethodologyCost c;
    // Serial: each iteration redesigns every domain and hand-offs between
    // consecutive domains.
    const double per_iteration =
        kNumDomains * kDomainDesignWeeks +
        (kNumDomains - 1) * kHandoffWeeks;
    c.time_to_market_weeks = per_iteration * kIntegrationIterationsExpert;
    c.design_weeks = c.time_to_market_weeks;  // serial: elapsed == effort
    c.design_cost_usd = c.design_weeks * kEngineerCostPerWeekUsd *
                        kNumDomains;  // specialist team per domain retained
    return c;
}

MethodologyCost automated_methodology() {
    MethodologyCost c;
    // Parallel domains inside one framework; hand-off automated; fewer
    // iterations because integration constraints are visible up front.
    const double domain_weeks =
        kDomainDesignWeeks * (1.0 - kAutomationFactor);
    const double per_iteration = domain_weeks;  // domains run concurrently
    c.time_to_market_weeks =
        per_iteration * kIntegrationIterationsAutomated;
    // Effort: all domains still spend their (reduced) weeks.
    c.design_weeks = domain_weeks * kNumDomains *
                     kIntegrationIterationsAutomated;
    c.design_cost_usd = c.design_weeks * kEngineerCostPerWeekUsd;
    return c;
}

}  // namespace janus
