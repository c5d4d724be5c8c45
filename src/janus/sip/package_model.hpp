#pragma once
/// \file package_model.hpp
/// Integration-technology model: the same component set realized as a
/// discrete PCB assembly, a system-in-package (SiP), or a monolithic SoC.
/// Captures Macii's point that SiP "allows merging of components with
/// different processes ... with minor impact on the IC design flow",
/// while the SoC route forces one technology.

#include "janus/sip/components.hpp"

namespace janus {

enum class IntegrationStyle { DiscretePcb, SiP, MonolithicSoC };

struct IntegrationResult {
    IntegrationStyle style = IntegrationStyle::DiscretePcb;
    bool feasible = true;
    std::string infeasible_reason;
    double assembly_cost_usd = 0;
    double total_cost_usd = 0;    ///< BOM + assembly (+ NRE share for SoC)
    double volume_mm3 = 0;        ///< after integration shrink factor
    double interconnect_power_uw = 0;  ///< inter-die/board signaling overhead
    double yield = 1.0;
};

struct IntegrationOptions {
    double production_volume = 100000;  ///< units, for NRE amortization
};

/// Evaluates one integration style for a system. A monolithic SoC is
/// infeasible when the system mixes incompatible technologies (MEMS,
/// PV, TEG, battery chemistry cannot be absorbed into the die).
IntegrationResult integrate(const SmartSystem& sys, IntegrationStyle style,
                            const IntegrationOptions& opts = {});

}  // namespace janus
