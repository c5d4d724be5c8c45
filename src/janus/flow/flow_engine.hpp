#pragma once
/// \file flow_engine.hpp
/// The staged flow engine: run_flow()'s old 127-line monolith decomposed
/// into named, observable stages over a shared FlowContext. Callers can run
/// the whole pipeline, run up to a stage and resume later, skip stages, or
/// inject custom ones; run_batch() executes independent designs/configs
/// concurrently on a fixed thread pool with bit-identical-to-serial
/// results (E5: flow throughput is a farm property, not a single-run one).
///
/// Pipeline (in order):
///   optimize -> map -> scan_insert -> place -> legalize -> sa_refine
///   -> scan_reorder -> route -> cts -> sizing -> sta -> power
/// Stage applicability is data- and mask-driven (e.g. `optimize`/`map` run
/// only for combinational designs, `scan_insert` only with
/// FlowStageMask::Scan); inapplicable stages are recorded as skipped in
/// the StageTrace rather than silently vanishing.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "janus/dft/scan.hpp"
#include "janus/flow/flow.hpp"
#include "janus/flow/report.hpp"
#include "janus/netlist/netlist.hpp"
#include "janus/netlist/technology.hpp"
#include "janus/place/analytic_place.hpp"

namespace janus {

class Aig;
class FlowScheduler;
class SopCache;

/// All state one flow run threads through its stages. The input netlist is
/// copied in (the caller's object is never touched — the old run_flow
/// "consumes the input" ambiguity is gone) and mutated stage by stage;
/// QoR lands in `result`, per-stage observations in `trace`.
struct FlowContext {
    /// Validates `params` and the design (throws std::invalid_argument on a
    /// check() failure or on the first Netlist::validate() problem) and
    /// takes ownership of a working copy of the design.
    FlowContext(Netlist input, TechnologyNode technology, FlowParams p);
    ~FlowContext();
    FlowContext(FlowContext&&) noexcept;
    FlowContext& operator=(FlowContext&&) noexcept;

    Netlist netlist;  ///< working copy, rewritten by map/scan/place stages
    TechnologyNode node;
    FlowParams params;
    FlowResult result;
    StageTrace trace;

    // --- intermediates handed from stage to stage --------------------------
    std::unique_ptr<Aig> aig;  ///< between optimize and map (combinational)
    PlacementArea area;        ///< set by place; used by legalize/route
    bool placed = false;
    ScanInsertion scan;        ///< set by scan_insert; used by scan_reorder

    /// Index of the next stage the engine will execute; FlowEngine::run
    /// advances it, so a context returned from run_to() resumes where it
    /// stopped.
    std::size_t next_stage = 0;

    // Stages record typed observations with `trace.note(key, value)`
    // (report.hpp); the engine attaches pending notes to the stage's
    // StageTraceEntry at the stage boundary. The old free-form
    // `stage_note` string is gone.

    /// Marks a stage (by name) to be skipped when reached.
    void skip(std::string stage_name);
    bool is_skipped(std::string_view stage_name) const;

  private:
    std::vector<std::string> skipped_;
};

/// One named pipeline stage. `run` mutates the context; `applies` (null =
/// always) reports whether the stage has work for this context — used so
/// traces distinguish "ran" from "not applicable".
struct FlowStage {
    std::string name;
    std::function<void(FlowContext&)> run;
    std::function<bool(const FlowContext&)> applies;
};

/// One independent unit of batch work: a design + node + configuration.
struct FlowJob {
    Netlist netlist;
    TechnologyNode node;
    FlowParams params;
    /// Stage names marked skipped in the job's context before it runs.
    /// The hierarchical flow uses this to pin its blocks to place/route
    /// only ("optimize"/"map"): the flat design was synthesized once, and
    /// re-synthesizing a block would restructure logic the stitcher must
    /// carry back verbatim.
    std::vector<std::string> skip_stages = {};
};

class FlowEngine {
  public:
    /// Builds the default pipeline (see file comment for stage order) with
    /// an empty SOP memo.
    FlowEngine();

    const std::vector<FlowStage>& stages() const { return stages_; }
    /// Index of a stage by name; throws std::out_of_range when unknown.
    std::size_t stage_index(std::string_view name) const;
    /// Injects a custom stage before position `pos` (end() when pos ==
    /// stages().size()). Throws std::out_of_range past the end.
    void insert_stage(std::size_t pos, FlowStage stage);

    /// Runs every remaining stage (from ctx.next_stage) and finalizes the
    /// QoR record; acts as "resume" on a partially-run context. Populates
    /// FlowResult::mapped when the last stage completes.
    FlowResult run(FlowContext& ctx) const;

    /// Runs remaining stages up to and including `last_stage`, leaving the
    /// context resumable. The returned (partial) QoR record is finalized
    /// for the stages that have run.
    FlowResult run_to(FlowContext& ctx, std::string_view last_stage) const;

    /// Executes independent jobs on `workers` threads and returns results
    /// in job order. Bit-identical to a serial run: the only state jobs
    /// share is the engine's SOP memo, whose covers are pure functions of
    /// their keys, and every stochastic stage is seeded from its own
    /// params, so scheduling cannot leak into QoR. Per-run stage traces are
    /// returned through `traces` (job order) when non-null.
    ///
    /// Thin wrapper over FlowScheduler (janus/server/scheduler.hpp): every
    /// job is moved into a JobHandle and waited for in order, so a caller
    /// that passes its vector with std::move hands the netlists over
    /// without a copy (an lvalue argument is copied once). A job that
    /// throws (bad params, a failing stage) surfaces as a failed FlowResult
    /// with `error` populated — sibling jobs run to completion and the pool
    /// is drained normally, never poisoned.
    std::vector<FlowResult> run_batch(std::vector<FlowJob> jobs, int workers,
                                      std::vector<StageTrace>* traces = nullptr) const;

    /// The SOP memo the `optimize` stage minimizes through: kept for every
    /// job this engine runs, and shared by copies of the engine, so a cut
    /// function is minimized once per engine, not once per job
    /// (docs/SYNTH.md).
    const SopCache& sop_memo() const { return *memo_; }

  private:
    friend class FlowScheduler;  ///< runs jobs via run_until without copies
    FlowResult run_until(FlowContext& ctx, std::size_t end_stage) const;

    std::shared_ptr<SopCache> memo_;
    std::vector<FlowStage> stages_;
};

}  // namespace janus
