#pragma once
/// \file timing_graph.hpp
/// Incremental, parallel static timing engine. A TimingGraph is built once
/// from a Netlist and caches everything run_sta() used to re-derive on
/// every call: the levelized combinational topology, per-instance gate
/// delays, and the arrival / min-arrival / required / slack arrays.
///
/// Two analysis modes share those caches:
///
///  - analyze(): full analysis via level-by-level forward and backward
///    sweeps. Levels are data-parallel (every instance of a level reads
///    only strictly lower levels and writes only its own output), so the
///    sweeps run on a WorkerTeam of `StaOptions::sta_workers` slots, in
///    blocks of kParallelGrain instances, and are **bit-identical** for any
///    worker count — the same determinism contract as `route_workers`
///    (docs/TIMING.md).
///
///  - resize(inst) / mark_dirty(inst) + update(): incremental re-analysis.
///    Seeds are enqueued, then update() re-propagates arrivals only through
///    the affected fanout cone (level-ordered worklist) and requireds only
///    through the affected fanin cone, returning per-update work stats.
///    O(cone) instead of O(design) — the backbone of the timing-driven
///    sizing loop (sizing.cpp).
///
/// The graph is the one owner of per-net timing: arrivals(), requireds()
/// and slacks() are its arrays. report() assembles only the summary (WNS,
/// TNS, hold, critical delay, fmax, worst endpoint, critical path), whose
/// every value is byte-identical to the historical single-shot run_sta()
/// implementation; run_sta() is now a thin wrapper over this class.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "janus/netlist/netlist.hpp"
#include "janus/timing/sta.hpp"

namespace janus {

/// One timing endpoint: a constrained net (primary output or flop input
/// pin) and its required time under the active constraints.
struct TimingEndpoint {
    NetId net;
    double required_ps;
};

/// The canonical endpoint list for a netlist: primary outputs first (in PO
/// order, required = clock period), then every input pin of every
/// sequential instance (in instance/pin order, required = period - setup).
/// Shared by TimingGraph::report() (WNS/TNS/critical scans) and
/// run_multi_corner() (per-corner endpoint slacks), so summary metrics are
/// computed over the same endpoint set everywhere.
std::vector<TimingEndpoint> timing_endpoints(const Netlist& nl,
                                             const StaOptions& opts);

/// Work accounting for one incremental update() call.
struct TimingUpdateStats {
    std::size_t delays_recomputed = 0;  ///< gate delays re-evaluated
    std::size_t forward_evals = 0;      ///< instances re-evaluated, arrival cone
    std::size_t backward_evals = 0;     ///< instances re-evaluated, required cone
    std::size_t levels_touched = 0;     ///< distinct levels visited (both sweeps)
    std::size_t instances_reevaluated() const {
        return forward_evals + backward_evals;
    }
};

class TimingGraph {
  public:
    /// Caches the levelized topology and the endpoint list. The netlist
    /// must outlive the graph; its structure (nets/pins) must not change
    /// afterwards — the graph records Netlist::mutation_epoch() and every
    /// analysis entry point throws std::logic_error on staleness. In-place
    /// instance resizes (Instance::type) are fine: report them through
    /// resize().
    explicit TimingGraph(const Netlist& nl, const StaOptions& opts = {});

    /// Instances per block of a full-analysis level sweep: a level of at
    /// most this many instances runs inline, since waking the team would
    /// cost more than the sweep itself.
    static constexpr std::size_t kParallelGrain = 256;

    /// Full analysis: parallel level-by-level forward sweep (arrivals, min
    /// arrivals for hold), then backward sweep (requireds), then slacks, on
    /// the `sta_workers` of the options the graph was built with.
    /// Bit-identical for any worker count. Clears any pending dirty seeds
    /// (a full rebuild supersedes them).
    void analyze();

    /// Notes that `inst` changed drive variant in place. Marks the
    /// instance itself dirty plus the combinational drivers of its fanin
    /// nets (their load — hence their delay — changed too).
    void resize(InstId inst);

    /// Enqueues a single instance whose delay must be re-evaluated on the
    /// next update(). Sequential instances are ignored (flop Q arrivals
    /// are constraint-driven, not load-driven, in this delay model).
    void mark_dirty(InstId inst);

    /// Incremental re-analysis from the pending seeds: recomputes dirty
    /// gate delays, propagates arrivals through the affected fanout cone
    /// (ascending level order) and requireds through the affected fanin
    /// cone (descending level order), and refreshes the slacks of touched
    /// nets. After update() the arrays are byte-identical to a fresh
    /// analyze(). Requires a prior analyze(); throws std::logic_error
    /// otherwise or when the netlist structure changed.
    TimingUpdateStats update();

    // --- queries ----------------------------------------------------------
    /// Per-net arrival / required / slack (indexed by NetId), in ps.
    const std::vector<double>& arrivals() const { return arrival_; }
    const std::vector<double>& requireds() const { return required_; }
    const std::vector<double>& slacks() const { return slack_; }
    const std::vector<TimingEndpoint>& endpoints() const { return endpoints_; }
    /// Number of combinational levels (the parallel sweep depth).
    std::size_t num_levels() const { return levels_.size(); }
    /// Instances on the widest level (the widest parallel sweep step).
    std::size_t max_level_width() const;
    /// Longest endpoint arrival — the critical delay — via one O(endpoints)
    /// scan; cheap enough to call once per sizing pass.
    double critical_delay_ps() const;
    /// Assembles the summary TimingReport (setup and hold metrics, worst
    /// endpoint, critical path) from the cached arrays: O(endpoints + flops
    /// + path), no per-net array is copied. Byte-identical to the summary
    /// the historical run_sta() returned.
    TimingReport report() const;

  private:
    void build_levels();
    void eval_forward(InstId i);
    void eval_backward(InstId i);
    void recompute_source_required(NetId net);
    void enqueue_forward(InstId i);
    void enqueue_backward(InstId i);
    void seed_backward_from(InstId i);
    void check_fresh() const;

    const Netlist* nl_;
    StaOptions opts_;
    std::uint64_t epoch_;
    bool analyzed_ = false;

    // Cached topology.
    std::vector<std::vector<InstId>> levels_;  ///< comb instances per level
    std::vector<int> level_of_;                ///< -1 for sequential
    std::vector<InstId> sequential_;
    std::vector<NetId> source_nets_;     ///< PI / flop-Q / undriven-with-sinks
    std::vector<TimingEndpoint> endpoints_;
    std::vector<double> endpoint_base_;  ///< per net: min endpoint constraint

    // Cached analysis state (per instance / per net).
    std::vector<double> gate_delay_;
    std::vector<double> arrival_;
    std::vector<double> min_arrival_;  ///< hold-analysis min arrivals
    std::vector<double> required_;
    std::vector<double> slack_;

    // Incremental worklists (persist across update() calls to avoid
    // reallocation; empty between calls).
    std::vector<InstId> dirty_seeds_;
    std::vector<std::uint8_t> delay_dirty_;
    std::vector<std::vector<InstId>> pending_fwd_;
    std::vector<std::vector<InstId>> pending_bwd_;
    std::vector<std::uint8_t> in_fwd_;
    std::vector<std::uint8_t> in_bwd_;
    std::vector<std::uint8_t> source_dirty_;
};

}  // namespace janus
