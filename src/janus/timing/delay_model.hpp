#pragma once
/// \file delay_model.hpp
/// First-order gate and interconnect delay models. Gate delay is the
/// linear model  d = intrinsic + R_drive * C_load;  interconnect uses a
/// lumped Elmore estimate from HPWL when placement data exists and a
/// fanout-based wireload model otherwise (the classic pre-layout
/// estimate).

#include "janus/netlist/netlist.hpp"
#include "janus/netlist/technology.hpp"

namespace janus {

/// Per-technology wire parasitics.
struct WireModel {
    double cap_ff_per_um = 0.2;   ///< wire capacitance
    double res_ohm_per_um = 1.0;  ///< wire resistance
    /// Pre-layout wireload: estimated length per fanout (um).
    double um_per_fanout = 5.0;

    /// Derives a wire model from the node (narrower wires: more R, ~same C).
    static WireModel for_node(const TechnologyNode& node);
};

/// Estimated routed length of a net in um: the HPWL of its pins (the
/// driver instance plus the sinks) when there are at least two and all are
/// placed, the wireload estimate otherwise. One walk over the pins, boxed
/// in place.
double estimate_net_length_um(const Netlist& nl, NetId net, const WireModel& wm);

/// Total capacitive load on a net (wire + sink pins).
double net_load_ff(const Netlist& nl, NetId net, const WireModel& wm);

/// Delay of instance `inst` driving its output net, in ps: gate plus a
/// lumped wire term 0.5 * R_wire * C_wire. One length walk of the output
/// net feeds both the load and the wire term; the result equals the gate
/// delay built from estimate_net_length_um() and net_load_ff() bit for bit.
double instance_delay_ps(const Netlist& nl, InstId inst, const WireModel& wm);

}  // namespace janus
