#pragma once
/// \file hier.hpp
/// Partition-driven hierarchical flow: the megascale path (docs/MEGASCALE.md)
/// for designs too large to push through one flat place/route. A flat
/// netlist is min-cut partitioned into K blocks, each block is implemented
/// independently through the existing staged flow (a FlowScheduler job,
/// which carries the deterministic-workers contract: results are
/// byte-identical for any worker count), each block's placements and cells
/// are written back onto a copy of the input, offset into a floorplan grid,
/// and top-level STA runs on the result.
///
/// The block phase is a bounded stream: one pass over the flat design
/// buckets instances and boundary nets by block; each block netlist is
/// built on the calling thread just before it is queued, written back in
/// block order once it finishes, and freed right after. At most
/// HierParams::workers + 1 block netlists are alive at any time.
///
/// Contract details:
///  - Partitioning, extraction and the write-back are serial and depend
///    only on the netlist and HierParams, never on worker count.
///  - The merged netlist is the input netlist: same ids, names and
///    connectivity. Each instance carries its block placement, offset into
///    its block's slot, and its block cell type (sizing may swap a cell for
///    another of the same function). Block flows skip optimize and map, so
///    block instance j is the j-th flat instance of that block; a block that
///    comes back with another instance count or cell function is a
///    std::logic_error.
///  - The input is validated before partitioning; a malformed one throws
///    std::invalid_argument naming the first problem.
///  - A failed block reports through `top.error` without throwing; `merged`
///    is then null.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "janus/flow/flow_engine.hpp"

namespace janus {

struct HierParams {
    /// Number of partitions (K). Values <= 1 run the whole design as one
    /// place/route-only block.
    int num_blocks = 4;
    /// Per-block flow knobs (seed, utilization, stage mask, workers).
    /// Each block job gets a copy with the same seed — determinism comes
    /// from the per-job seeding, not from job isolation tricks.
    FlowParams block_flow;
    /// Worker threads that run the block flows. Also bounds memory: at
    /// most workers + 1 blocks are extracted and not yet written back.
    int workers = 1;
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
/// followed by up to six greedy boundary sweeps that move an instance to
/// its best-connected block when that strictly reduces the cut and keeps
/// every block within 10% of the average size.
HierPartition partition_min_cut(const Netlist& nl, int num_blocks);

/// One implemented block plus where the floorplan put it.
struct HierBlockResult {
    /// Per-block QoR (place/route/STA of the block). `flow.mapped` is
    /// null: each block netlist is freed once it is written back into
    /// HierFlowResult::merged.
    FlowResult flow;
    /// Region assigned in the merged floorplan (nm). It holds every placed
    /// cell of the block whole (legalizer width, one row high), and no two
    /// blocks' regions overlap, so cells of different blocks never overlap.
    /// Slots are whole sites wide and whole rows high, so every merged
    /// cell stays on the row/site grid the blocks place on.
    Rect placement;
};

struct HierFlowResult {
    /// Top-level QoR: merged instance/area/HPWL counts and the top STA
    /// numbers (critical delay, WNS/TNS) over the merged netlist. `legal`
    /// is the AND of every block's legality; `runtime_ms` is the wall time
    /// of the whole run_hier_flow call. `route_wirelength` sums the block
    /// routes only: the boundary nets' inter-block segments are not routed.
    FlowResult top;
    std::vector<HierBlockResult> blocks;
    std::size_t cut_nets = 0;  ///< partition cut size
    /// Nets driven in one block and read in another or by a top output.
    /// No router routes their inter-block segments.
    std::size_t boundary_nets = 0;
    /// The input netlist with every instance's block placement, offset into
    /// its floorplan slot, and block cell type (shared so callers can run
    /// further analyses without a copy). Null when a block failed.
    std::shared_ptr<Netlist> merged;
};

/// Runs the partition → per-block flow → write-back → top STA pipeline.
/// Byte-identical for any HierParams::workers value. Throws
/// std::invalid_argument, before partitioning, when `nl` fails
/// Netlist::validate() or `block_flow.stages` includes Scan (scan insertion
/// adds ports and cells the flat design does not have).
HierFlowResult run_hier_flow(const Netlist& nl, const TechnologyNode& node,
                             const HierParams& params);

}  // namespace janus
