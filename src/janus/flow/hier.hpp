#pragma once
/// \file hier.hpp
/// Partition-driven hierarchical flow: the megascale path (docs/MEGASCALE.md)
/// for designs too large to push through one flat place/route. A flat
/// netlist is min-cut partitioned into K blocks, each block is implemented
/// independently through the existing staged flow (a FlowScheduler job,
/// which carries the deterministic-workers contract: results are
/// byte-identical for any worker count), the implemented blocks are
/// stitched back together — boundary nets reconnected by name, block
/// placements offset into a floorplan grid — and top-level STA runs on the
/// merged result.
///
/// The block phase is a bounded stream: one pass over the flat design
/// buckets instances and boundary nets by block; each block netlist is
/// built on the calling thread just before it is queued, stitched in block
/// order once it finishes, and freed right after. At most
/// HierParams::workers + 1 block netlists are alive at any time.
///
/// Contract details:
///  - Partitioning, extraction and the stitch are serial and depend only
///    on the netlist and HierParams, never on worker count.
///  - Block interfaces are name-carried: a cut net becomes a primary output
///    of its driving block and a primary input of every reading block,
///    under the flat design's net name. Block flows skip optimize and map,
///    so each block PO stays the output of the instance that drives it in
///    the flat design, and the stitch is a pure name join.
///  - The merged netlist is validated; any dangling boundary is an error.
///  - A failed block reports through `top.error` without throwing, even
///    when stitching an earlier block would have thrown; `merged` is then
///    null.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "janus/flow/flow_engine.hpp"

namespace janus {

struct HierParams {
    /// Number of partitions (K). Values < 2 run the flat flow unchanged.
    int num_blocks = 4;
    /// FM-style boundary refinement sweeps after the initial partition.
    int refine_passes = 6;
    /// Allowed block-size imbalance: a move is rejected when it would push
    /// a block above (1 + balance_slack) * average size.
    double balance_slack = 0.10;
    /// Per-block flow knobs (seed, utilization, stage mask, workers).
    /// Each block job gets a copy with the same seed — determinism comes
    /// from the per-job seeding, not from job isolation tricks.
    FlowParams block_flow;
    /// Worker threads that run the block flows. Also bounds memory: at
    /// most workers + 1 blocks are extracted and not yet stitched.
    int workers = 1;
    /// Spacing between adjacent block placements in the merged floorplan,
    /// as a fraction of the widest block dimension.
    double floorplan_margin = 0.05;
};

/// Result of min-cut partitioning: block id per instance plus cut metrics.
struct HierPartition {
    std::vector<int> block_of;   ///< indexed by InstId, values in [0, K)
    std::size_t cut_nets = 0;    ///< nets whose pins span >1 block
    std::size_t num_blocks = 0;
    std::vector<std::size_t> block_sizes;
};

/// Deterministic K-way min-cut partitioning: contiguous id-order seeding
/// (creation order is locality order for generated and ingested designs)
/// followed by `refine_passes` greedy boundary sweeps that move an instance
/// to its best-connected block when that strictly reduces the cut and
/// keeps block sizes within the slack.
HierPartition partition_min_cut(const Netlist& nl, int num_blocks,
                                int refine_passes = 6,
                                double balance_slack = 0.10);

/// One implemented block plus where the stitcher put it.
struct HierBlockResult {
    /// Per-block QoR (place/route/STA of the block). `flow.mapped` is
    /// null: each block netlist is freed once it is stitched into
    /// HierFlowResult::merged.
    FlowResult flow;
    Rect placement;      ///< region assigned in the merged floorplan (nm)
};

struct HierFlowResult {
    /// Top-level QoR: merged instance/area/HPWL counts and the top STA
    /// numbers (critical delay, WNS/TNS) over the stitched netlist. `legal`
    /// is the AND of every block's legality; `runtime_ms` is the wall time
    /// of the whole run_hier_flow call.
    FlowResult top;
    std::vector<HierBlockResult> blocks;
    std::size_t cut_nets = 0;           ///< partition cut size
    std::size_t stitched_nets = 0;      ///< boundary nets joined by name
    /// The stitched, placed top netlist (shared so callers can run further
    /// analyses without a copy). Null when a block failed.
    std::shared_ptr<Netlist> merged;
};

/// Runs the partition → per-block flow → stitch → top STA pipeline.
/// Byte-identical for any HierParams::workers value. Throws
/// std::invalid_argument, before partitioning, when `block_flow.stages`
/// includes Scan: scan ports added inside a block have no flat net to join.
HierFlowResult run_hier_flow(const Netlist& nl, const TechnologyNode& node,
                             const HierParams& params);

}  // namespace janus
