#pragma once
/// \file flow.hpp
/// Parameters and quality-of-results record for the JanusEDA implementation
/// flow. The flow itself is a staged pipeline (flow_engine.hpp): logic
/// optimization -> technology mapping -> scan insertion -> placement ->
/// legalization -> scan reorder -> routing -> CTS -> sizing -> STA -> power.
/// One run is the unit panelist Rossi measures in instances per day (E5);
/// its knobs are what the self-learning tuner drives (E6).

#include <cstdint>
#include <memory>
#include <string>

#include "janus/netlist/netlist.hpp"
#include "janus/netlist/technology.hpp"

namespace janus {

/// Optional flow stages, selectable as a bitmask. Replaces the old pile of
/// FlowParams booleans (insert_scan / size_timing / build_clock) with one
/// composable knob the tuner and batch configs can sweep.
enum class FlowStageMask : std::uint32_t {
    None = 0,
    Scan = 1u << 0,       ///< scan insertion + post-placement reorder
    ClockTree = 1u << 1,  ///< clock tree synthesis (sequential designs)
    Sizing = 1u << 2,     ///< post-route timing-driven gate sizing
    Default = ClockTree,
    All = Scan | ClockTree | Sizing,
};

constexpr FlowStageMask operator|(FlowStageMask a, FlowStageMask b) {
    return static_cast<FlowStageMask>(static_cast<std::uint32_t>(a) |
                                      static_cast<std::uint32_t>(b));
}
constexpr FlowStageMask operator&(FlowStageMask a, FlowStageMask b) {
    return static_cast<FlowStageMask>(static_cast<std::uint32_t>(a) &
                                      static_cast<std::uint32_t>(b));
}
constexpr FlowStageMask operator~(FlowStageMask a) {
    return static_cast<FlowStageMask>(~static_cast<std::uint32_t>(a)) &
           FlowStageMask::All;
}
constexpr bool has_stage(FlowStageMask mask, FlowStageMask bit) {
    return (mask & bit) != FlowStageMask::None;
}

/// Tunable flow parameters (the knobs a methodology team sweeps).
struct FlowParams {
    int optimize_rounds = 3;       ///< AIG balance/refactor rounds
    double utilization = 0.65;
    /// Cap on each CG solve of global placement: the coarsest level of the
    /// unanchored solve, and max(5, cap/4) for each anchored re-solve.
    int placer_iterations = 250;
    int sa_moves_per_cell = 0;     ///< 0 disables detailed placement
    int router_iterations = 8;
    int routing_layers = 6;
    /// Thread count for every parallel stage (optimize, map, sa_refine,
    /// route, sizing, sta); 1 = serial. Each stage carries the same
    /// determinism contract — QoR is byte-identical for any worker count
    /// (docs/SYNTH.md, docs/PLACE.md, docs/ROUTING.md, docs/TIMING.md) —
    /// so this is a pure performance knob.
    int workers = 1;
    FlowStageMask stages = FlowStageMask::Default;
    int scan_chains = 4;
    std::uint64_t seed = 1;

    bool enabled(FlowStageMask bit) const { return has_stage(stages, bit); }

    /// Returns an empty string when every knob is usable, else a
    /// description naming the first bad knob. The flow engine calls this up
    /// front and throws std::invalid_argument instead of silently
    /// misbehaving on nonsense like utilization > 1.
    std::string check() const;
};

/// Quality-of-results record of one flow run.
struct FlowResult {
    std::string design;
    std::size_t instances = 0;
    double area_um2 = 0;
    double hpwl_um = 0;
    std::size_t route_wirelength = 0;  ///< gcell units
    double route_overflow = 0;
    double critical_delay_ps = 0;
    double wns_ps = 0;
    double total_power_mw = 0;
    double scan_wirelength_um = 0;  ///< 0 when scan disabled
    double clock_skew_ps = 0;       ///< 0 when no flops / clocking disabled
    double clock_wirelength_um = 0;
    int cells_resized = 0;          ///< by timing-driven sizing
    bool legal = false;
    double runtime_ms = 0;
    /// Populated when the run failed (a stage or the context constructor
    /// threw): the exception text. A failed result carries whatever QoR had
    /// accumulated before the failure; scheduler/batch execution reports
    /// failures here instead of propagating and poisoning sibling jobs.
    std::string error;
    bool failed() const { return !error.empty(); }
    /// The implemented (mapped + placed + stitched) netlist, populated when
    /// the final stage has run. Replaces the old `Netlist* out` parameter;
    /// shared so FlowResult stays cheap to copy into tuner/bench history.
    std::shared_ptr<const Netlist> mapped;
    /// Scalar figure of merit (lower is better): used by the tuner.
    double cost() const;
};

/// Runs the full flow on a combinational or sequential netlist. The input
/// netlist is never modified: it is deep-copied into the flow context, and
/// the implemented design comes back as FlowResult::mapped. Thin wrapper
/// over FlowEngine (flow_engine.hpp) kept for single-run callers.
/// Throws std::invalid_argument when params.check() fails.
FlowResult run_flow(const Netlist& input, const TechnologyNode& node,
                    const FlowParams& params = {});

}  // namespace janus
