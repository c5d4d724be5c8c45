#include "janus/flow/hier.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "janus/server/scheduler.hpp"
#include "janus/timing/sta.hpp"
#include "janus/util/geometry.hpp"

namespace janus {
namespace {

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

HierPartition partition_min_cut(const Netlist& nl, int num_blocks,
                                int refine_passes, double balance_slack) {
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
        static_cast<std::size_t>(std::ceil(avg * (1.0 + balance_slack)));

    // Greedy FM-lite sweeps: move an instance to its best-connected block
    // when that strictly lowers the number of incident nets kept whole in a
    // foreign block vs. the home block. Deterministic: fixed id-order
    // sweep, first-best tie-break, no randomness.
    std::vector<int> conn(static_cast<std::size_t>(k), 0);
    for (int pass = 0; pass < refine_passes; ++pass) {
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
/// POs under the flat design's net name (the stitch key). `net_map` (flat
/// net -> block net) is all kNoNet on entry and is left that way.
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

/// Rebuilds the top netlist from the implemented blocks, joining boundary
/// nets by name. Blocks are added in block order with their block-local
/// positions; finish() offsets each block into its floorplan slot, whose
/// size depends on the largest block. A name two nets share is reported by
/// finish(), so that the caller can let a failed block take precedence.
class Stitch {
  public:
    explicit Stitch(const Netlist& top)
        : top_(top), merged_(std::make_shared<Netlist>(top.library_ptr(), top.name())) {
        for (const NetId pi : top_.primary_inputs()) {
            const std::string name = top_.net_name(pi);
            join(name, merged_->add_primary_input(name));
        }
    }

    /// Copies one implemented block into the merged netlist. Its instances
    /// take the next contiguous range of merged ids.
    void add_block(const Netlist& bn) {
        const auto first = static_cast<InstId>(merged_->num_instances());
        first_inst_.push_back(first);
        Rect extent;
        std::vector<NetId> bmap(bn.num_nets(), kNoNet);
        std::vector<NetId> fanins;
        for (InstId i = 0; i < bn.num_instances(); ++i) {
            const Instance& inst = bn.instance(i);
            fanins.assign(static_cast<std::size_t>(function_arity(bn.type_of(i).function)),
                          kNoNet);
            for (std::size_t p = 0; p < fanins.size(); ++p) {
                if (inst.fanin[p] != kNoNet) fanins[p] = bmap[inst.fanin[p]];
            }
            Instance& minst = merged_->instance(
                merged_->add_instance(bn.instance_name(i), inst.type, fanins));
            bmap[inst.output] = minst.output;
            minst.placed = inst.placed;
            if (inst.placed) {
                minst.position = inst.position;
                extent = bounding_box(extent, Rect(inst.position, inst.position));
            }
        }
        extents_.push_back(extent);

        // Intra-block deferred pins; boundary pins go to the name queue.
        for (InstId i = 0; i < bn.num_instances(); ++i) {
            const int arity = function_arity(bn.type_of(i).function);
            for (int p = 0; p < arity; ++p) {
                const NetId f = bn.instance(i).fanin[static_cast<std::size_t>(p)];
                if (f == kNoNet ||
                    merged_->instance(first + i).fanin[static_cast<std::size_t>(p)] != kNoNet) {
                    continue;
                }
                if (bmap[f] != kNoNet) {
                    merged_->connect_input(first + i, p, bmap[f]);
                } else {
                    pending_.push_back(PendingPin{first + i, p, bn.net_name(f)});
                }
            }
        }
        // Block jobs skip optimize and map, so every block PO is still
        // the output of the block instance build_block gave it.
        for (const auto& [po_name, po_net] : bn.primary_outputs()) {
            if (bmap[po_net] == kNoNet) {
                throw std::logic_error("hier: block output \"" + po_name +
                                       "\" has no driving block instance");
            }
            join(po_name, bmap[po_net]);
        }
    }

    /// Resolves the name joins, places every block in its floorplan slot
    /// and validates the result. Records the slots and the stitched-net
    /// count in `out`.
    std::shared_ptr<Netlist> finish(double floorplan_margin, HierFlowResult& out) {
        if (!shared_name_.empty()) {
            throw std::runtime_error("hier: net name \"" + shared_name_ +
                                     "\" is not unique while stitching " + top_.name());
        }

        for (const PendingPin& pp : pending_) {
            const auto it = boundary_.find(pp.net);
            if (it == boundary_.end()) {
                throw std::runtime_error("hier: unresolved boundary net \"" + pp.net +
                                         "\" while stitching " + top_.name());
            }
            merged_->connect_input(pp.inst, pp.pin, it->second);
        }
        for (const auto& [po_name, po_net] : top_.primary_outputs()) {
            const auto it = boundary_.find(top_.net_name(po_net));
            if (it == boundary_.end()) {
                throw std::runtime_error("hier: top output \"" + po_name +
                                         "\" lost its boundary net while stitching");
            }
            merged_->add_primary_output(po_name, it->second);
        }

        // Floorplan: blocks tiled on a ceil(sqrt(K)) grid of uniform slots
        // sized by the largest block extent (positions are nm).
        const std::size_t k = extents_.size();
        const auto cols = static_cast<std::int64_t>(
            std::ceil(std::sqrt(static_cast<double>(k))));
        std::int64_t max_w = 1, max_h = 1;
        for (const Rect& e : extents_) {
            max_w = std::max(max_w, e.width());
            max_h = std::max(max_h, e.height());
        }
        const auto margin = static_cast<std::int64_t>(
            floorplan_margin * static_cast<double>(std::max(max_w, max_h)));
        const std::int64_t slot_w = max_w + std::max<std::int64_t>(margin, 1);
        const std::int64_t slot_h = max_h + std::max<std::int64_t>(margin, 1);
        first_inst_.push_back(static_cast<InstId>(merged_->num_instances()));
        for (std::size_t b = 0; b < k; ++b) {
            const Rect& e = extents_[b];
            const auto sb = static_cast<std::int64_t>(b);
            const Point slot{(sb % cols) * slot_w, (sb / cols) * slot_h};
            out.blocks[b].placement = Rect{slot, {slot.x + e.width(), slot.y + e.height()}};
            const Point offset{slot.x - (e.empty() ? 0 : e.lo.x),
                               slot.y - (e.empty() ? 0 : e.lo.y)};
            for (InstId i = first_inst_[b]; i < first_inst_[b + 1]; ++i) {
                Instance& inst = merged_->instance(i);
                if (inst.placed) {
                    inst.position = Point{inst.position.x + offset.x,
                                          inst.position.y + offset.y};
                }
            }
        }

        const auto problems = merged_->validate();
        if (!problems.empty()) {
            throw std::runtime_error("hier: stitched netlist invalid: " + problems.front());
        }
        out.stitched_nets = boundary_.size() - top_.primary_inputs().size();
        return merged_;
    }

  private:
    struct PendingPin {
        InstId inst;
        int pin;
        std::string net;
    };

    // The join is by printable name, so a name two nets share would
    // silently merge them; the first such name is kept for finish().
    void join(const std::string& name, NetId net) {
        if (!boundary_.emplace(name, net).second && shared_name_.empty()) {
            shared_name_ = name;
        }
    }

    const Netlist& top_;
    std::shared_ptr<Netlist> merged_;
    std::unordered_map<std::string, NetId> boundary_;
    std::vector<PendingPin> pending_;
    std::vector<InstId> first_inst_;  ///< first merged instance id per block
    std::vector<Rect> extents_;       ///< block-local placement extent per block
    std::string shared_name_;         ///< first name two nets share
};

}  // namespace

HierFlowResult run_hier_flow(const Netlist& nl, const TechnologyNode& node,
                             const HierParams& params) {
    const auto t0 = std::chrono::steady_clock::now();
    // Scan insertion would give each sequential block scan ports that have
    // no net in the flat design, so the stitch could never join them.
    if (params.block_flow.enabled(FlowStageMask::Scan)) {
        throw std::invalid_argument(
            "HierParams: block_flow.stages must not include Scan; scan "
            "chains cannot be stitched across blocks");
    }
    HierFlowResult out;
    const int k = std::max(1, params.num_blocks);

    const HierPartition part = partition_min_cut(
        nl, k, params.refine_passes, params.balance_slack);
    out.cut_nets = part.cut_nets;
    std::vector<BlockSlice> slices = slice_blocks(nl, part);

    Stitch stitch(nl);

    // The block stream. Each block netlist is built on this thread (the
    // flat design's lazy sinks() cache must not be warmed from several
    // threads) just before it is queued, stitched in block order once it
    // finishes, and freed right after: at most workers + 1 blocks are
    // alive at any time. Block results are byte-identical for any worker
    // count, and partition, extraction and stitch are serial, so the whole
    // hier flow inherits the contract.
    const int workers = std::max(1, params.workers);
    out.blocks.resize(static_cast<std::size_t>(k));
    bool block_failed = false;
    {
        FlowEngine engine;
        FlowScheduler scheduler(engine, workers);
        std::vector<NetId> net_map(nl.num_nets(), kNoNet);
        std::deque<JobHandle> in_flight;  // queued or running, in block order
        int next = 0;
        for (int b = 0; b < k; ++b) {
            for (; next < k && in_flight.size() <= static_cast<std::size_t>(workers); ++next) {
                BlockSlice& slice = slices[static_cast<std::size_t>(next)];
                FlowJob job{build_block(nl, slice, next, net_map), node, params.block_flow};
                slice = {};
                // Place/route only: the flat input is already synthesized,
                // and a purely combinational block would otherwise be
                // re-synthesized (optimize/map restructure logic), losing
                // instances the stitcher must carry back into the merged
                // design verbatim.
                job.skip_stages = {"optimize", "map"};
                in_flight.push_back(scheduler.submit(std::move(job)));
            }
            FlowResult& r = out.blocks[static_cast<std::size_t>(b)].flow;
            r = in_flight.front().wait();
            in_flight.pop_front();
            if (r.failed()) {
                if (!block_failed) out.top.error = "hier: block flow failed: " + r.error;
                block_failed = true;
            } else if (!block_failed) {
                stitch.add_block(*r.mapped);
            }
            r.mapped.reset();
        }
    }
    // A failed block reports through top.error without throwing, and takes
    // precedence over any stitch error (finish() raises those).
    if (block_failed) return out;

    std::shared_ptr<Netlist> merged = stitch.finish(params.floorplan_margin, out);

    // Top-level STA over the stitched, placed result.
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
