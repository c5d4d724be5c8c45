#pragma once
/// \file methodology.hpp
/// Design-methodology cost model: "expert" smart-system design (separate
/// tools, manual hand-off between domains, specialist teams) versus a
/// "mainstream" automated integrated methodology. Quantifies Macii's
/// claim that automation cuts design cost and time-to-market (E11).

namespace janus {

struct MethodologyCost {
    double design_weeks = 0;
    double design_cost_usd = 0;
    double time_to_market_weeks = 0;
};

/// Expert methodology: serial domain design + manual hand-offs, repeated
/// over the integration iterations.
MethodologyCost expert_methodology();

/// Automated co-design methodology: parallel domain design inside one
/// framework, automated hand-off, fewer iterations.
MethodologyCost automated_methodology();

}  // namespace janus
