#include "janus/sip/package_model.hpp"

#include <algorithm>
#include <vector>

namespace janus {
namespace {

constexpr double kSocNreUsd = 3e6;  ///< port-everything-to-one-tech NRE

bool absorbable_into_soc(const Component& c) {
    // Only plain-CMOS digital/RF parts can merge into one die.
    return c.technology.rfind("CMOS", 0) == 0;
}

}  // namespace

IntegrationResult integrate(const SmartSystem& sys, IntegrationStyle style,
                            const IntegrationOptions& opts) {
    IntegrationResult res;
    res.style = style;
    const auto& cat = component_catalog();
    std::vector<const Component*> parts;
    for (const int idx : {sys.sensor, sys.radio, sys.mcu, sys.storage, sys.power,
                          sys.harvester}) {
        if (idx >= 0 && idx < static_cast<int>(cat.size())) {
            parts.push_back(&cat[static_cast<std::size_t>(idx)]);
        }
    }
    double bom = 0, volume = 0;
    int dies = 0;
    for (const Component* c : parts) {
        bom += c->cost_usd;
        volume += c->volume_mm3;
        if (c->kind != ComponentKind::PowerSource &&
            c->kind != ComponentKind::Harvester) {
            ++dies;
        }
    }

    switch (style) {
        case IntegrationStyle::DiscretePcb:
            // Board, passives, connectors; no shrink; board-level signaling.
            res.assembly_cost_usd = 0.50 + 0.08 * static_cast<double>(parts.size());
            res.volume_mm3 = volume * 1.8;  // board + clearances
            res.interconnect_power_uw = 6.0 * dies;
            res.yield = 0.995;
            res.total_cost_usd = bom + res.assembly_cost_usd;
            break;
        case IntegrationStyle::SiP: {
            // Die stacking / substrate: higher assembly cost, strong volume
            // shrink, short interconnect. Works across technologies.
            res.assembly_cost_usd = 0.90 + 0.15 * dies;
            double die_volume = 0, battery_volume = 0;
            for (const Component* c : parts) {
                if (c->kind == ComponentKind::PowerSource ||
                    c->kind == ComponentKind::Harvester) {
                    battery_volume += c->volume_mm3;
                } else {
                    die_volume += c->volume_mm3;
                }
            }
            res.volume_mm3 = die_volume * 0.45 + battery_volume;
            res.interconnect_power_uw = 1.5 * dies;
            res.yield = std::max(0.5, 1.0 - 0.01 * dies);  // known-good-die risk
            res.total_cost_usd = bom + res.assembly_cost_usd;
            res.total_cost_usd /= res.yield;
            break;
        }
        case IntegrationStyle::MonolithicSoC: {
            for (const Component* c : parts) {
                if (c->kind == ComponentKind::PowerSource ||
                    c->kind == ComponentKind::Harvester) {
                    continue;  // stays external in every style
                }
                if (!absorbable_into_soc(*c)) {
                    res.feasible = false;
                    res.infeasible_reason =
                        c->name + " (" + c->technology + ") cannot merge into one die";
                }
            }
            if (!res.feasible) return res;
            res.assembly_cost_usd = 0.30;
            res.volume_mm3 = volume * 0.35;
            res.interconnect_power_uw = 0.2 * dies;
            res.yield = 0.98;
            res.total_cost_usd = bom * 0.7 + res.assembly_cost_usd +
                                 kSocNreUsd / std::max(1.0, opts.production_volume);
            res.total_cost_usd /= res.yield;
            break;
        }
    }
    return res;
}

}  // namespace janus
