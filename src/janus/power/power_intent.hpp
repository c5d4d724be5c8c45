#pragma once
/// \file power_intent.hpp
/// UPF/CPF-style power intent: voltage/supply/shutdown domains over a
/// netlist, with isolation/level-shifter accounting and domain-aware
/// power rollup. Panelist Domic: "scores of voltage/supply/shutdown
/// domains even at 180 nm are common" (experiment E4); panelist Rossi
/// recalls the UPF/CPF dualism this models.

#include <optional>
#include <string>
#include <vector>

#include "janus/netlist/netlist.hpp"
#include "janus/power/power_model.hpp"

namespace janus {

/// One power domain.
struct PowerDomain {
    std::string name;
    double voltage = 0.0;       ///< operating voltage (V)
    bool can_shutdown = false;
    double on_fraction = 1.0;   ///< fraction of time powered (duty cycle)
    std::vector<InstId> members;
};

/// A complete power intent: every instance belongs to exactly one domain
/// (the default domain catches the rest).
class PowerIntent {
  public:
    /// Creates intent with a default always-on domain at `default_voltage`.
    PowerIntent(const Netlist& nl, double default_voltage);

    /// Adds a domain; instances are moved out of the default domain.
    /// Throws if an instance is already in a non-default domain.
    void add_domain(PowerDomain domain);

    const std::vector<PowerDomain>& domains() const { return domains_; }

    /// Nets crossing from a shutdown-capable domain into another domain
    /// need isolation cells; returns the count.
    std::size_t isolation_cells_needed(const Netlist& nl) const;
    /// Nets crossing between domains of different voltage need level
    /// shifters; returns the count.
    std::size_t level_shifters_needed(const Netlist& nl) const;

    /// Domain-aware power: each instance's dynamic power scales with
    /// (V_domain / V_nom)^2 and its duty cycle; leakage is gated by the
    /// on-fraction for shutdown domains. Isolation/shifter overhead is
    /// added as equivalent INV-sized cells.
    PowerReport estimate(const Netlist& nl, const TechnologyNode& node,
                         const PowerOptions& opts = {}) const;

  private:
    std::vector<PowerDomain> domains_;  // [0] is the default domain
    std::vector<std::size_t> domain_of_;
};

}  // namespace janus
