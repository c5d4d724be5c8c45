#include "janus/flow/hier.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>

#include "janus/place/legalize.hpp"
#include "janus/server/scheduler.hpp"
#include "janus/timing/sta.hpp"
#include "janus/util/geometry.hpp"

namespace janus {
namespace {

/// Greedy boundary sweeps after the initial id-order partition.
constexpr int kRefinePasses = 6;
/// Allowed block-size imbalance: a move is rejected when it would push a
/// block above (1 + kBalanceSlack) * average size.
constexpr double kBalanceSlack = 0.10;
/// Spacing between adjacent block slots in the merged floorplan, as a
/// fraction of the widest block dimension.
constexpr double kFloorplanMargin = 0.05;

/// Blocks of every pin on a net (driver instance + instance sinks),
/// excluding `skip`. Returns false when the net has no other instance pin.
template <typename Fn>
void for_other_pins(const Netlist& nl, const std::vector<int>& block_of,
                    NetId net, InstId skip, Fn&& fn) {
    const Net& n = nl.net(net);
    if (n.driver_kind == DriverKind::Instance && n.driver_inst != skip) {
        fn(block_of[n.driver_inst]);
    }
    for (const SinkRef& s : nl.sinks(net)) {
        if (s.inst() != skip) fn(block_of[s.inst()]);
    }
}

std::size_t count_cut_nets(const Netlist& nl, const std::vector<int>& block_of) {
    std::size_t cut = 0;
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        int first = -1;
        bool spans = false;
        const Net& net = nl.net(n);
        if (net.driver_kind == DriverKind::Instance) first = block_of[net.driver_inst];
        for (const SinkRef& s : nl.sinks(n)) {
            if (first < 0) {
                first = block_of[s.inst()];
            } else if (block_of[s.inst()] != first) {
                spans = true;
                break;
            }
        }
        if (spans) ++cut;
    }
    return cut;
}

}  // namespace

HierPartition partition_min_cut(const Netlist& nl, int num_blocks) {
    const std::size_t n = nl.num_instances();
    const int k = std::max(1, num_blocks);
    HierPartition part;
    part.num_blocks = static_cast<std::size_t>(k);
    part.block_of.resize(n, 0);
    // Contiguous id-order seeding: creation order is locality order for
    // both generated meshes and ingested files, so the initial cut is
    // already far from random.
    for (std::size_t i = 0; i < n; ++i) {
        part.block_of[i] = static_cast<int>(i * static_cast<std::size_t>(k) / std::max<std::size_t>(n, 1));
    }
    part.block_sizes.assign(static_cast<std::size_t>(k), 0);
    for (const int b : part.block_of) ++part.block_sizes[static_cast<std::size_t>(b)];

    const double avg = static_cast<double>(n) / k;
    const auto max_size =
        static_cast<std::size_t>(std::ceil(avg * (1.0 + kBalanceSlack)));

    // Greedy FM-lite sweeps: move an instance to its best-connected block
    // when that strictly lowers the number of incident nets kept whole in a
    // foreign block vs. the home block. Deterministic: fixed id-order
    // sweep, first-best tie-break, no randomness.
    std::vector<int> conn(static_cast<std::size_t>(k), 0);
    for (int pass = 0; pass < kRefinePasses; ++pass) {
        std::size_t moves = 0;
        for (InstId i = 0; i < n; ++i) {
            const int home = part.block_of[i];
            std::fill(conn.begin(), conn.end(), 0);
            const Instance& inst = nl.instance(i);
            const int arity = function_arity(nl.type_of(i).function);
            const auto tally = [&](NetId net) {
                // A net votes for block b when every other pin lives in b —
                // moving i to b uncuts it; any mixed net is cut regardless.
                int only = -1;
                bool mixed = false, any = false;
                for_other_pins(nl, part.block_of, net, i, [&](int b) {
                    any = true;
                    if (only < 0) only = b;
                    else if (b != only) mixed = true;
                });
                if (any && !mixed) ++conn[static_cast<std::size_t>(only)];
            };
            for (int p = 0; p < arity; ++p) {
                const NetId f = inst.fanin[static_cast<std::size_t>(p)];
                if (f != kNoNet) tally(f);
            }
            if (inst.output != kNoNet) tally(inst.output);

            int best = home;
            for (int b = 0; b < k; ++b) {
                if (b != home && conn[static_cast<std::size_t>(b)] >
                                     conn[static_cast<std::size_t>(best)]) {
                    best = b;
                }
            }
            if (best != home &&
                part.block_sizes[static_cast<std::size_t>(best)] + 1 <= max_size) {
                part.block_of[i] = best;
                --part.block_sizes[static_cast<std::size_t>(home)];
                ++part.block_sizes[static_cast<std::size_t>(best)];
                ++moves;
            }
        }
        if (moves == 0) break;
    }
    part.cut_nets = count_cut_nets(nl, part.block_of);
    return part;
}

namespace {

/// One block's share of the flat design. Each list is in id order, which
/// fixes the block netlist's PI, instance and PO order.
struct BlockSlice {
    std::vector<InstId> insts;
    std::vector<NetId> inputs;   ///< read here, driven elsewhere: block PIs
    std::vector<NetId> outputs;  ///< driven here, read elsewhere or by a top PO: block POs
};

/// Buckets instances and boundary nets by block in one pass over `top`.
std::vector<BlockSlice> slice_blocks(const Netlist& top, const HierPartition& part) {
    std::vector<BlockSlice> slices(part.num_blocks);
    for (std::size_t b = 0; b < slices.size(); ++b) {
        slices[b].insts.reserve(part.block_sizes[b]);
    }
    for (InstId i = 0; i < top.num_instances(); ++i) {
        slices[static_cast<std::size_t>(part.block_of[i])].insts.push_back(i);
    }

    // Nets observed by top POs must be exported even when no foreign
    // instance reads them.
    std::vector<char> po_observed(top.num_nets(), 0);
    for (const auto& po : top.primary_outputs()) po_observed[po.second] = 1;

    std::vector<NetId> last_input(slices.size(), kNoNet);  // dedups a net's readers
    for (NetId n = 0; n < top.num_nets(); ++n) {
        const Net& net = top.net(n);
        const int driver = net.driver_kind == DriverKind::Instance
                               ? part.block_of[net.driver_inst]
                               : -1;
        bool read_out = po_observed[n] != 0;
        for (const SinkRef& s : top.sinks(n)) {
            const int b = part.block_of[s.inst()];
            if (b == driver) continue;
            read_out = true;
            if (last_input[static_cast<std::size_t>(b)] != n) {
                last_input[static_cast<std::size_t>(b)] = n;
                slices[static_cast<std::size_t>(b)].inputs.push_back(n);
            }
        }
        if (driver >= 0 && read_out) {
            slices[static_cast<std::size_t>(driver)].outputs.push_back(n);
        }
    }
    return slices;
}

/// Builds block `b` as a standalone netlist. Cut nets become block PIs /
/// POs under the flat design's net name. `net_map` (flat net -> block net)
/// is all kNoNet on entry and is left that way.
Netlist build_block(const Netlist& top, const BlockSlice& slice, int b,
                    std::vector<NetId>& net_map) {
    Netlist sub(top.library_ptr(), top.name() + "__b" + std::to_string(b));
    for (const NetId n : slice.inputs) {
        net_map[n] = sub.add_primary_input(top.net_name(n));
    }

    // Instances in id order, so block instance j is slice.insts[j].
    // Forward references (a fanin driven by a later instance of the same
    // block, e.g. flop feedback) stay kNoNet and are wired in the second
    // loop — same protocol as the file readers.
    std::vector<NetId> fanins;
    for (const InstId i : slice.insts) {
        const Instance& inst = top.instance(i);
        fanins.assign(static_cast<std::size_t>(function_arity(top.type_of(i).function)),
                      kNoNet);
        for (std::size_t p = 0; p < fanins.size(); ++p) {
            if (inst.fanin[p] != kNoNet) fanins[p] = net_map[inst.fanin[p]];
        }
        const InstId si = sub.add_instance(top.instance_name(i), inst.type, fanins);
        net_map[inst.output] = sub.instance(si).output;
    }
    for (InstId si = 0; si < slice.insts.size(); ++si) {
        const InstId ti = slice.insts[si];
        const int arity = function_arity(top.type_of(ti).function);
        for (int p = 0; p < arity; ++p) {
            const NetId f = top.instance(ti).fanin[static_cast<std::size_t>(p)];
            if (f != kNoNet &&
                sub.instance(si).fanin[static_cast<std::size_t>(p)] == kNoNet) {
                sub.connect_input(si, p, net_map[f]);
            }
        }
    }

    for (const NetId n : slice.outputs) {
        sub.add_primary_output(top.net_name(n), net_map[n]);
    }
    for (const NetId n : slice.inputs) net_map[n] = kNoNet;
    for (const InstId i : slice.insts) net_map[top.instance(i).output] = kNoNet;
    return sub;
}

/// Writes block `bn`'s placement and cell choice back onto the flat
/// instances it was built from (block instance j is `insts[j]`) and returns
/// the block's placement extent: the bounding box of its placed cells'
/// footprints on `area`'s rows and sites, so every cell lies inside it
/// whole. Block jobs skip optimize and map and Scan is rejected, so a block
/// keeps its instances one for one, and sizing may only swap a cell for
/// another of the same function.
Rect write_back(const Netlist& bn, const std::vector<InstId>& insts,
                const PlacementArea& area, Netlist& merged) {
    if (bn.num_instances() != insts.size()) {
        throw std::logic_error("hier: block " + bn.name() + " came back with " +
                               std::to_string(bn.num_instances()) + " instances, not " +
                               std::to_string(insts.size()));
    }
    Rect extent;
    for (InstId j = 0; j < insts.size(); ++j) {
        if (bn.type_of(j).function != merged.type_of(insts[j]).function) {
            throw std::logic_error("hier: block instance " +
                                   std::string(bn.instance_name(j)) +
                                   " came back with another cell function");
        }
        const Instance& bi = bn.instance(j);
        Instance& mi = merged.instance(insts[j]);
        mi.type = bi.type;
        mi.placed = bi.placed;
        mi.position = bi.position;
        if (bi.placed) {
            const Point far{bi.position.x + cell_width_nm(bn, j, area),
                            bi.position.y + area.row_height};
            extent = bounding_box(extent, Rect(bi.position, far));
        }
    }
    return extent;
}

}  // namespace

HierFlowResult run_hier_flow(const Netlist& nl, const TechnologyNode& node,
                             const HierParams& params) {
    const auto t0 = std::chrono::steady_clock::now();
    // Scan insertion would give each sequential block scan ports and cells
    // that the flat design does not have.
    if (params.block_flow.enabled(FlowStageMask::Scan)) {
        throw std::invalid_argument(
            "HierParams: block_flow.stages must not include Scan; scan "
            "chains cannot be stitched across blocks");
    }
    // The merged design is the input, so the input is checked once here,
    // before any block runs.
    if (const auto problems = nl.validate(); !problems.empty()) {
        throw std::invalid_argument("hier: input netlist invalid: " + problems.front());
    }
    HierFlowResult out;
    const int k = std::max(1, params.num_blocks);

    const HierPartition part = partition_min_cut(nl, k);
    out.cut_nets = part.cut_nets;
    std::vector<BlockSlice> slices = slice_blocks(nl, part);
    for (const BlockSlice& s : slices) out.boundary_nets += s.outputs.size();
    // Copied after slicing, so the copy carries the warm sinks() cache that
    // top STA reads.
    auto merged = std::make_shared<Netlist>(nl);

    // The block stream. Each block netlist is built on this thread (the
    // flat design's lazy sinks() cache must not be warmed from several
    // threads) just before it is queued, written back in block order once
    // it finishes, and freed right after: at most workers + 1 blocks are
    // alive at any time. Block results are byte-identical for any worker
    // count, and partition, extraction and write-back are serial, so the
    // whole hier flow inherits the contract.
    const int workers = std::max(1, params.workers);
    out.blocks.resize(static_cast<std::size_t>(k));
    std::vector<Rect> extents(static_cast<std::size_t>(k));
    PlacementArea grid;  // every block places on the node's rows and sites
    bool block_failed = false;
    {
        FlowEngine engine;
        FlowScheduler scheduler(engine, workers);
        std::vector<NetId> net_map(nl.num_nets(), kNoNet);
        std::deque<JobHandle> in_flight;  // queued or running, in block order
        int next = 0;
        for (int b = 0; b < k; ++b) {
            for (; next < k && in_flight.size() <= static_cast<std::size_t>(workers); ++next) {
                FlowJob job{build_block(nl, slices[static_cast<std::size_t>(next)], next, net_map),
                            node, params.block_flow};
                // Place/route only: the flat input is already synthesized,
                // and a purely combinational block would otherwise be
                // re-synthesized (optimize/map restructure logic), losing
                // the one-for-one instance map the write-back relies on.
                job.skip_stages = {"optimize", "map"};
                in_flight.push_back(scheduler.submit(std::move(job)));
            }
            const auto sb = static_cast<std::size_t>(b);
            FlowResult& r = out.blocks[sb].flow;
            r = in_flight.front().wait();
            in_flight.pop_front();
            if (r.failed()) {
                if (!block_failed) out.top.error = "hier: block flow failed: " + r.error;
                block_failed = true;
            } else if (!block_failed) {
                grid = make_placement_area(*r.mapped, node, params.block_flow.utilization);
                extents[sb] = write_back(*r.mapped, slices[sb].insts, grid, *merged);
            }
            r.mapped.reset();
            slices[sb] = {};
        }
    }
    // A failed block reports through top.error without throwing.
    if (block_failed) return out;

    // Floorplan: blocks tiled on a ceil(sqrt(K)) grid of uniform slots
    // sized by the largest block extent (positions are nm). A slot is a
    // whole number of sites wide and of rows high, so every block keeps its
    // cells on one row/site grid with the others.
    const auto cols = static_cast<std::int64_t>(std::ceil(std::sqrt(static_cast<double>(k))));
    std::int64_t max_w = 1, max_h = 1;
    for (const Rect& e : extents) {
        max_w = std::max(max_w, e.width());
        max_h = std::max(max_h, e.height());
    }
    const auto margin = static_cast<std::int64_t>(
        kFloorplanMargin * static_cast<double>(std::max(max_w, max_h)));
    const auto round_up = [](std::int64_t v, std::int64_t unit) {
        return (v + unit - 1) / unit * unit;
    };
    const std::int64_t slot_w =
        round_up(max_w + std::max<std::int64_t>(margin, 1), grid.site_width);
    const std::int64_t slot_h =
        round_up(max_h + std::max<std::int64_t>(margin, 1), grid.row_height);
    std::vector<Point> offsets(extents.size());
    for (std::size_t b = 0; b < extents.size(); ++b) {
        const Rect& e = extents[b];
        const auto sb = static_cast<std::int64_t>(b);
        const Point slot{(sb % cols) * slot_w, (sb / cols) * slot_h};
        out.blocks[b].placement = Rect{slot, {slot.x + e.width(), slot.y + e.height()}};
        offsets[b] = Point{slot.x - (e.empty() ? 0 : e.lo.x), slot.y - (e.empty() ? 0 : e.lo.y)};
    }
    for (InstId i = 0; i < merged->num_instances(); ++i) {
        Instance& inst = merged->instance(i);
        if (inst.placed) {
            const Point& d = offsets[static_cast<std::size_t>(part.block_of[i])];
            inst.position = Point{inst.position.x + d.x, inst.position.y + d.y};
        }
    }

    // Top-level STA over the merged, placed design.
    StaOptions sopts;
    sopts.wire = WireModel::for_node(node);
    sopts.sta_workers = params.block_flow.workers;
    const TimingReport tr = run_sta(*merged, sopts);

    out.top.design = nl.name();
    out.top.instances = merged->num_instances();
    out.top.area_um2 = merged->total_area();
    out.top.critical_delay_ps = tr.critical_delay_ps;
    out.top.wns_ps = tr.wns_ps;
    // The merged design is legal only if every block came back legal.
    out.top.legal = std::all_of(out.blocks.begin(), out.blocks.end(),
                                [](const HierBlockResult& b) { return b.flow.legal; });
    double hpwl_nm = 0;
    for (NetId n = 0; n < merged->num_nets(); ++n) {
        Rect box;
        const Net& net = merged->net(n);
        const auto extend = [&box](const Point& p) { box = bounding_box(box, Rect(p, p)); };
        if (net.driver_kind == DriverKind::Instance &&
            merged->instance(net.driver_inst).placed) {
            extend(merged->instance(net.driver_inst).position);
        }
        for (const SinkRef& s : merged->sinks(n)) {
            if (merged->instance(s.inst()).placed) extend(merged->instance(s.inst()).position);
        }
        if (!box.empty()) hpwl_nm += static_cast<double>(box.width() + box.height());
    }
    out.top.hpwl_um = hpwl_nm / 1000.0;
    // Block-internal routes only: no router runs on the boundary nets'
    // inter-block segments.
    for (const HierBlockResult& b : out.blocks) {
        out.top.route_wirelength += b.flow.route_wirelength;
    }
    out.top.runtime_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    out.merged = std::move(merged);
    return out;
}

}  // namespace janus
