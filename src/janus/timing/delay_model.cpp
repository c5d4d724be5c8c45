#include "janus/timing/delay_model.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace janus {

namespace {

/// Sink pin capacitance on top of the wire capacitance of `len_um`, summed
/// in sink order.
double load_for_length_ff(const Netlist& nl, NetId net, double len_um,
                          const WireModel& wm) {
    double cap = len_um * wm.cap_ff_per_um;
    for (const SinkRef& s : nl.sinks(net)) {
        cap += nl.type_of(s.inst()).input_cap_ff;
    }
    return cap;
}

}  // namespace

WireModel WireModel::for_node(const TechnologyNode& node) {
    WireModel wm;
    // Wire capacitance per unit length is roughly node-independent
    // (~0.2 fF/um); resistance grows as the cross-section shrinks.
    wm.cap_ff_per_um = 0.2;
    wm.res_ohm_per_um = 0.4 * (180.0 / std::max(1.0, node.feature_nm));
    // Average wirelength tracks the row pitch: finer nodes, shorter wires.
    wm.um_per_fanout = 25.0 * node.track_um;
    return wm;
}

double estimate_net_length_um(const Netlist& nl, NetId net, const WireModel& wm) {
    // Box the driver and sink positions in place; the first unplaced pin
    // ends the walk, and it or a net of fewer than two pins takes the
    // wireload estimate.
    std::int64_t minx = std::numeric_limits<std::int64_t>::max(), miny = minx;
    std::int64_t maxx = std::numeric_limits<std::int64_t>::min(), maxy = maxx;
    std::size_t pins = 0;
    const auto add = [&](const Instance& i) {
        minx = std::min(minx, i.position.x);
        miny = std::min(miny, i.position.y);
        maxx = std::max(maxx, i.position.x);
        maxy = std::max(maxy, i.position.y);
        ++pins;
        return i.placed;
    };
    const Net& n = nl.net(net);
    bool placed = n.driver_kind != DriverKind::Instance || add(nl.instance(n.driver_inst));
    for (const SinkRef& s : nl.sinks(net)) {
        if (!placed) break;
        placed = add(nl.instance(s.inst()));
    }
    if (placed && pins >= 2) {
        // Positions are in DBU = nm here; convert to um.
        return static_cast<double>((maxx - minx) + (maxy - miny)) * 1e-3;
    }
    return wm.um_per_fanout * static_cast<double>(std::max<std::size_t>(1, nl.fanout_count(net)));
}

double net_load_ff(const Netlist& nl, NetId net, const WireModel& wm) {
    return load_for_length_ff(nl, net, estimate_net_length_um(nl, net, wm), wm);
}

double instance_delay_ps(const Netlist& nl, InstId inst, const WireModel& wm) {
    const CellType& ct = nl.type_of(inst);
    const NetId out = nl.instance(inst).output;
    // One length walk feeds both the load and the wire term.
    const double len = estimate_net_length_um(nl, out, wm);
    const double load = load_for_length_ff(nl, out, len, wm);
    const double wire_delay =
        0.5 * (len * wm.res_ohm_per_um) * (len * wm.cap_ff_per_um) * 1e-3;
    return ct.intrinsic_delay_ps + ct.drive_res_kohm * load + wire_delay;
}

}  // namespace janus
