#include "janus/flow/hier.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_map>

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

/// Extracts block `b` as a standalone netlist. Cut nets become block PIs /
/// POs under the flat design's net name (the stitch key).
Netlist extract_block(const Netlist& top, const std::vector<int>& block_of,
                      int b) {
    Netlist sub(top.library_ptr(),
                top.name() + "__b" + std::to_string(b));
    std::vector<NetId> net_map(top.num_nets(), kNoNet);

    // Nets observed by top POs must be exported even when no foreign
    // instance reads them.
    std::vector<char> po_observed(top.num_nets(), 0);
    for (const auto& [po_name, po_net] : top.primary_outputs()) {
        (void)po_name;
        po_observed[po_net] = 1;
    }

    // Pass 1: boundary inputs, in top net-id order (deterministic PI order).
    for (NetId n = 0; n < top.num_nets(); ++n) {
        const Net& net = top.net(n);
        const bool driven_in =
            net.driver_kind == DriverKind::Instance && block_of[net.driver_inst] == b;
        if (driven_in) continue;
        bool read_in = false;
        for (const SinkRef& s : top.sinks(n)) {
            if (block_of[s.inst()] == b) {
                read_in = true;
                break;
            }
        }
        if (read_in) net_map[n] = sub.add_primary_input(top.net_name(n));
    }

    // Pass 2: instances in id order; forward references (a fanin driven by
    // a later instance of the same block, e.g. flop feedback) stay kNoNet
    // and are wired in pass 3 — same protocol as the file readers.
    std::vector<std::pair<InstId, InstId>> created;  // (sub id, top id)
    for (InstId i = 0; i < top.num_instances(); ++i) {
        if (block_of[i] != b) continue;
        const Instance& inst = top.instance(i);
        const int arity = function_arity(top.type_of(i).function);
        std::vector<NetId> fanins(static_cast<std::size_t>(arity), kNoNet);
        for (int p = 0; p < arity; ++p) {
            const NetId f = inst.fanin[static_cast<std::size_t>(p)];
            if (f != kNoNet && net_map[f] != kNoNet) {
                fanins[static_cast<std::size_t>(p)] = net_map[f];
            }
        }
        const InstId si = sub.add_instance(top.instance_name(i), inst.type, fanins);
        net_map[inst.output] = sub.instance(si).output;
        created.emplace_back(si, i);
    }

    // Pass 3: resolve the deferred fanins.
    for (const auto& [si, ti] : created) {
        const Instance& tinst = top.instance(ti);
        const int arity = function_arity(top.type_of(ti).function);
        for (int p = 0; p < arity; ++p) {
            const NetId f = tinst.fanin[static_cast<std::size_t>(p)];
            if (f == kNoNet) continue;
            if (sub.instance(si).fanin[static_cast<std::size_t>(p)] == kNoNet) {
                sub.connect_input(si, p, net_map[f]);
            }
        }
    }

    // Pass 4: boundary outputs — nets driven here and read elsewhere (or
    // observed by a top PO), exported under the flat net name.
    for (NetId n = 0; n < top.num_nets(); ++n) {
        const Net& net = top.net(n);
        if (net.driver_kind != DriverKind::Instance || block_of[net.driver_inst] != b) {
            continue;
        }
        bool read_out = po_observed[n] != 0;
        for (const SinkRef& s : top.sinks(n)) {
            if (block_of[s.inst()] != b) {
                read_out = true;
                break;
            }
        }
        if (read_out) sub.add_primary_output(std::string(top.net_name(n)), net_map[n]);
    }
    return sub;
}

}  // namespace

HierFlowResult run_hier_flow(const Netlist& nl, const TechnologyNode& node,
                             const HierParams& params) {
    const auto t0 = std::chrono::steady_clock::now();
    HierFlowResult out;
    const int k = std::max(1, params.num_blocks);

    const HierPartition part = partition_min_cut(
        nl, k, params.refine_passes, params.balance_slack);
    out.cut_nets = part.cut_nets;

    // Per-block implementation through the standard batch path. run_batch
    // results are byte-identical for any worker count, and partitioning /
    // stitching are serial, so the whole hier flow inherits the contract.
    std::vector<FlowJob> jobs;
    jobs.reserve(static_cast<std::size_t>(k));
    for (int b = 0; b < k; ++b) {
        FlowJob job{extract_block(nl, part.block_of, b), node, params.block_flow};
        // Place/route only: the flat input is already synthesized, and a
        // purely combinational block would otherwise be re-synthesized
        // (optimize/map restructure logic), losing instances the stitcher
        // must carry back into the merged design verbatim.
        job.skip_stages = {"optimize", "map"};
        jobs.push_back(std::move(job));
    }
    FlowEngine engine;
    std::vector<FlowResult> block_results =
        engine.run_batch(jobs, std::max(1, params.workers));

    for (const FlowResult& r : block_results) {
        if (r.failed()) {
            out.top.error = "hier: block flow failed: " + r.error;
            out.blocks.resize(block_results.size());
            for (std::size_t b = 0; b < block_results.size(); ++b) {
                out.blocks[b].flow = block_results[b];
            }
            return out;
        }
    }

    // Floorplan: blocks tiled on a ceil(sqrt(K)) grid of uniform slots
    // sized by the largest block extent (positions are nm).
    const int cols = static_cast<int>(
        std::ceil(std::sqrt(static_cast<double>(k))));
    std::int64_t max_w = 1, max_h = 1;
    std::vector<Rect> extents(static_cast<std::size_t>(k));
    for (int b = 0; b < k; ++b) {
        const Netlist& bn = *block_results[static_cast<std::size_t>(b)].mapped;
        Rect e;
        for (InstId i = 0; i < bn.num_instances(); ++i) {
            const Instance& inst = bn.instance(i);
            if (inst.placed) e = bounding_box(e, Rect(inst.position, inst.position));
        }
        extents[static_cast<std::size_t>(b)] = e;
        max_w = std::max(max_w, e.width());
        max_h = std::max(max_h, e.height());
    }
    const auto margin = static_cast<std::int64_t>(
        params.floorplan_margin * static_cast<double>(std::max(max_w, max_h)));
    const std::int64_t slot_w = max_w + std::max<std::int64_t>(margin, 1);
    const std::int64_t slot_h = max_h + std::max<std::int64_t>(margin, 1);

    // Stitch: rebuild the top netlist from the implemented blocks, joining
    // boundary nets by name and offsetting block placements into their
    // floorplan slots.
    auto merged = std::make_shared<Netlist>(nl.library_ptr(), nl.name());
    std::unordered_map<std::string, NetId> boundary;
    // The join is by printable name, so a name two nets share would
    // silently merge them.
    const auto join = [&](const std::string& name, NetId net) {
        if (!boundary.emplace(name, net).second) {
            throw std::runtime_error("hier: net name \"" + name +
                                     "\" is not unique while stitching " + nl.name());
        }
    };
    for (const NetId pi : nl.primary_inputs()) {
        const std::string name = nl.net_name(pi);
        join(name, merged->add_primary_input(name));
    }

    struct PendingPin {
        InstId inst;
        int pin;
        std::string net;
    };
    std::vector<PendingPin> pending;
    // A block PO can alias a block PI directly (synthesis collapsed the
    // cone to a wire); those resolve after all blocks are in.
    std::vector<std::pair<std::string, std::string>> po_aliases;

    out.blocks.resize(static_cast<std::size_t>(k));
    for (int b = 0; b < k; ++b) {
        const Netlist& bn = *block_results[static_cast<std::size_t>(b)].mapped;
        const Rect& e = extents[static_cast<std::size_t>(b)];
        const Point offset{(b % cols) * slot_w - (e.empty() ? 0 : e.lo.x),
                           (b / cols) * slot_h - (e.empty() ? 0 : e.lo.y)};
        out.blocks[static_cast<std::size_t>(b)].flow =
            block_results[static_cast<std::size_t>(b)];
        out.blocks[static_cast<std::size_t>(b)].placement =
            Rect{{(b % cols) * slot_w, (b / cols) * slot_h},
                 {(b % cols) * slot_w + e.width(), (b / cols) * slot_h + e.height()}};

        std::vector<NetId> bmap(bn.num_nets(), kNoNet);
        std::vector<std::pair<InstId, InstId>> created;  // (merged, block)
        for (InstId i = 0; i < bn.num_instances(); ++i) {
            const Instance& inst = bn.instance(i);
            const int arity = function_arity(bn.type_of(i).function);
            std::vector<NetId> fanins(static_cast<std::size_t>(arity), kNoNet);
            for (int p = 0; p < arity; ++p) {
                const NetId f = inst.fanin[static_cast<std::size_t>(p)];
                if (f != kNoNet && bmap[f] != kNoNet) {
                    fanins[static_cast<std::size_t>(p)] = bmap[f];
                }
            }
            const InstId mi =
                merged->add_instance(bn.instance_name(i), inst.type, fanins);
            bmap[inst.output] = merged->instance(mi).output;
            Instance& minst = merged->instance(mi);
            minst.placed = inst.placed;
            if (inst.placed) {
                minst.position = Point{inst.position.x + offset.x,
                                       inst.position.y + offset.y};
            }
            created.emplace_back(mi, i);
        }
        // Intra-block deferred pins; boundary pins go to the name queue.
        for (const auto& [mi, bi] : created) {
            const Instance& binst = bn.instance(bi);
            const int arity = function_arity(bn.type_of(bi).function);
            for (int p = 0; p < arity; ++p) {
                const NetId f = binst.fanin[static_cast<std::size_t>(p)];
                if (f == kNoNet) continue;
                if (merged->instance(mi).fanin[static_cast<std::size_t>(p)] != kNoNet) {
                    continue;
                }
                if (bmap[f] != kNoNet) {
                    merged->connect_input(mi, p, bmap[f]);
                } else {
                    pending.push_back(
                        PendingPin{mi, p, std::string(bn.net_name(f))});
                }
            }
        }
        for (const auto& [po_name, po_net] : bn.primary_outputs()) {
            if (bmap[po_net] != kNoNet) {
                join(po_name, bmap[po_net]);
            } else {
                po_aliases.emplace_back(po_name, std::string(bn.net_name(po_net)));
            }
        }
    }

    // Resolve PO-to-PI aliases (chains converge in <= K rounds).
    for (int round = 0; round < k + 1 && !po_aliases.empty(); ++round) {
        std::vector<std::pair<std::string, std::string>> unresolved;
        for (const auto& [po, src] : po_aliases) {
            const auto it = boundary.find(src);
            if (it != boundary.end()) {
                join(po, it->second);
            } else {
                unresolved.push_back({po, src});
            }
        }
        if (unresolved.size() == po_aliases.size()) break;
        po_aliases = std::move(unresolved);
    }

    for (const PendingPin& pp : pending) {
        const auto it = boundary.find(pp.net);
        if (it == boundary.end()) {
            throw std::runtime_error("hier: unresolved boundary net \"" + pp.net +
                                     "\" while stitching " + nl.name());
        }
        merged->connect_input(pp.inst, pp.pin, it->second);
    }
    for (const auto& [po_name, po_net] : nl.primary_outputs()) {
        const auto it = boundary.find(std::string(nl.net_name(po_net)));
        if (it == boundary.end()) {
            throw std::runtime_error("hier: top output \"" + po_name +
                                     "\" lost its boundary net while stitching");
        }
        merged->add_primary_output(po_name, it->second);
    }
    out.stitched_nets = boundary.size() - nl.primary_inputs().size();

    const auto problems = merged->validate();
    if (!problems.empty()) {
        throw std::runtime_error("hier: stitched netlist invalid: " + problems.front());
    }

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
    out.top.legal = std::all_of(block_results.begin(), block_results.end(),
                                [](const FlowResult& r) { return r.legal; });
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
    for (const FlowResult& r : block_results) {
        out.top.route_wirelength += r.route_wirelength;
    }
    out.top.runtime_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    out.merged = std::move(merged);
    return out;
}

}  // namespace janus
