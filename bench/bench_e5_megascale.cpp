/// E5 (Rossi): "sub-chip P&R at 5-6M instances" — the forward-looking half
/// of the throughput claim. This bench exercises the two megascale layers
/// together (docs/MEGASCALE.md):
///
///  1. Memory-lean core storage: a 2M-instance pipelined datapath mesh is
///     generated and its real heap footprint (Netlist::memory_bytes())
///     compared against the recorded legacy layout (string-per-object
///     names, 88-byte instances, vector<vector> sink cache). The
///     acceptance bar is >= 2x fewer bytes per instance.
///  2. Partition-driven hierarchical flow: the design is min-cut
///     partitioned and each block is pushed through the staged flow
///     (place -> route -> STA on a FlowScheduler), written back onto a copy
///     of the input as it finishes and timed at the top level. Wall time
///     extrapolates to the E5 instances/day figure; peak RSS shows what the
///     block stream holds.
///
/// `--smoke` runs a scaled-down version plus the worker-count identity
/// gate (merged result byte-identical for 1 vs 3 vs 4 workers, its netlist
/// text equal to the input's) for ctest, and prints the process's peak RSS.
/// Both modes check that every merged cell sits on the node's row/site
/// grid, and exit 1 when a check fails.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "janus/flow/hier.hpp"
#include "janus/logic/aig.hpp"
#include "janus/netlist/generator.hpp"
#include "janus/netlist/io.hpp"
#include "janus/place/analytic_place.hpp"

using namespace janus;

namespace {

/// Heap bytes the pre-megascale layout needed for the same design in the
/// same (warm-cache) state, measured from the live netlist so name lengths
/// and sink counts are real, not modeled:
///  - Instance was 88 bytes (std::string name = 32 + size_t type = 8 +
///    fanin/output = 20 + pad + Point = 16 + bool placed + pad), Net was 40
///    (string + driver fields). Names longer than the 15-char SSO buffer
///    also carried a heap block of size+1 plus ~16 bytes of allocator
///    bookkeeping; every auto-created "<inst>.out" net name was a full
///    stored string.
///  - The sink cache was vector<vector<SinkRef>> with 8-byte {inst, pin}
///    elements: a 24-byte vector header per net, and each non-empty inner
///    vector a heap block whose capacity is the push_back doubling sequence
///    (next power of two >= the sink count) plus allocator bookkeeping.
///  - The topological-order cache (4 bytes per combinational instance) was
///    the same then as now and is counted on both sides.
std::size_t legacy_memory_bytes(const Netlist& nl) {
    constexpr std::size_t kOldInstance = 88;
    constexpr std::size_t kOldNet = 40;
    constexpr std::size_t kOldSinkRef = 8;
    constexpr std::size_t kSso = 15;
    constexpr std::size_t kAllocOverhead = 16;
    const auto next_pow2 = [](std::size_t v) {
        std::size_t p = 1;
        while (p < v) p <<= 1;
        return p;
    };
    std::size_t bytes = nl.num_instances() * kOldInstance + nl.num_nets() * kOldNet;
    std::size_t comb = 0;
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        const std::size_t len = nl.instance_name(i).size();
        if (len > kSso) bytes += len + 1 + kAllocOverhead;
        if (!is_sequential(nl.type_of(i).function)) ++comb;
    }
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        const std::size_t len = nl.net_name(n).size();
        if (len > kSso) bytes += len + 1 + kAllocOverhead;
        const std::size_t s = nl.sinks(n).size();
        bytes += 24;  // inner vector header in the outer vector's array
        if (s > 0) bytes += next_pow2(s) * kOldSinkRef + kAllocOverhead;
    }
    bytes += comb * sizeof(InstId);  // topo cache, identical both layouts
    return bytes;
}

/// The new layout's footprint in the same warm state the legacy model
/// describes: sink CSR and topological order built, growth slack released.
std::size_t warm_memory_bytes(Netlist& nl) {
    nl.topological_order();
    (void)nl.sinks(0);
    nl.shrink_to_fit();
    return nl.memory_bytes();
}

/// Serializes netlist + placement for the byte-identity gate.
std::string design_fingerprint(const Netlist& nl) {
    std::ostringstream os;
    write_netlist(os, nl);
    write_placement(os, nl);
    return os.str();
}

/// Placed cells of `nl` whose origin is off the row/site grid: every block
/// of a hierarchical run places on the same rows and sites of `node`, so
/// the merged design must keep its cells on that one grid.
std::size_t off_grid_cells(const Netlist& nl, const TechnologyNode& node) {
    const PlacementArea grid = make_placement_area(nl, node);
    std::size_t off = 0;
    for (InstId i = 0; i < nl.num_instances(); ++i) {
        const Instance& inst = nl.instance(i);
        if (inst.placed && (inst.position.x % grid.site_width != 0 ||
                            inst.position.y % grid.row_height != 0)) {
            ++off;
        }
    }
    return off;
}

struct RunStats {
    double flow_s = 0;
    double inst_per_day = 0;
    HierFlowResult hier;
};

RunStats run_megascale(const Netlist& nl, const TechnologyNode& node,
                       int blocks, int workers) {
    HierParams hp;
    hp.num_blocks = blocks;
    hp.workers = workers;
    hp.block_flow.stages = FlowStageMask::None;  // synth/place/route/STA core
    hp.block_flow.seed = 7;

    const auto t0 = std::chrono::steady_clock::now();
    RunStats rs;
    rs.hier = run_hier_flow(nl, node, hp);
    rs.flow_s = bench::ms_since(t0) / 1000.0;
    rs.inst_per_day =
        static_cast<double>(nl.num_instances()) / rs.flow_s * 86400.0;
    return rs;
}

int run_smoke(const std::shared_ptr<const CellLibrary>& lib,
              const TechnologyNode& node) {
    std::printf("bench_e5_megascale --smoke\n");
    // Pipelined mesh: sequential, so the 60k instances survive the flow
    // structurally and the identity gate compares real placements.
    Netlist nl = generate_mesh(lib, 60000, 15, 3);

    const double bpi = static_cast<double>(warm_memory_bytes(nl)) /
                       static_cast<double>(nl.num_instances());
    const double legacy_bpi = static_cast<double>(legacy_memory_bytes(nl)) /
                              static_cast<double>(nl.num_instances());
    std::printf("  storage: %.1f B/inst (legacy %.1f, %.2fx)\n", bpi,
                legacy_bpi, legacy_bpi / bpi);

    const std::string input_text = netlist_to_string(nl);
    const RunStats serial = run_megascale(nl, node, 4, 1);
    const std::string a = design_fingerprint(*serial.hier.merged);
    bool identical = true;
    bool merged_is_input = netlist_to_string(*serial.hier.merged) == input_text;
    for (const int workers : {3, 4}) {
        const RunStats parallel = run_megascale(nl, node, 4, workers);
        identical = identical && design_fingerprint(*parallel.hier.merged) == a;
        merged_is_input =
            merged_is_input && netlist_to_string(*parallel.hier.merged) == input_text;
    }
    const std::size_t off_grid = off_grid_cells(*serial.hier.merged, node);
    std::printf("  hier: %zu blocks, cut %zu, %zu boundary nets, not routed at "
                "top, wns %.1f ps, %zu cells off the row/site grid\n",
                serial.hier.blocks.size(), serial.hier.cut_nets,
                serial.hier.boundary_nets, serial.hier.top.wns_ps, off_grid);
    std::printf("  peak rss %.0f MiB\n", bench::peak_rss_mb());

    bool ok = bench::shape_check("storage shrink at least 2x vs legacy layout",
                                 legacy_bpi / bpi >= 2.0);
    ok &= bench::shape_check("merged netlist carries every instance",
                             serial.hier.top.instances == nl.num_instances());
    ok &= bench::shape_check("hier flow byte-identical for 1 vs 3 vs 4 workers", identical);
    ok &= bench::shape_check("merged netlist text equals the input's at 1, 3 and 4 workers",
                             merged_is_input);
    ok &= bench::shape_check("top-level STA produced a critical path",
                             serial.hier.top.critical_delay_ps > 0);
    ok &= bench::shape_check("every merged cell on the row/site grid", off_grid == 0);
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const auto lib = bench::make_lib();
    const auto node = *find_node("28nm");
    if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
        return run_smoke(lib, node);
    }

    bench::banner("E5 bench_e5_megascale", "Domenico Rossi (ST)",
                  "sub-chip P&R at 5-6M instances on one machine");

    constexpr std::size_t kGates = 2'000'000;
    constexpr int kBlocks = 16;
    std::printf("generating %zu-gate pipelined mesh...\n", kGates);
    const auto g0 = std::chrono::steady_clock::now();
    Netlist nl = generate_mesh(lib, kGates, 15, 4);
    const double gen_s = bench::ms_since(g0) / 1000.0;
    std::printf("  %zu instances, %zu nets in %.1f s\n", nl.num_instances(),
                nl.num_nets(), gen_s);

    // --- storage accounting -------------------------------------------------
    const std::size_t mem = warm_memory_bytes(nl);
    const std::size_t legacy = legacy_memory_bytes(nl);
    const double bpi =
        static_cast<double>(mem) / static_cast<double>(nl.num_instances());
    const double legacy_bpi =
        static_cast<double>(legacy) / static_cast<double>(nl.num_instances());
    std::printf("  storage: %.1f MiB (%.1f B/inst); legacy layout %.1f MiB "
                "(%.1f B/inst) -> %.2fx shrink\n",
                mem / 1048576.0, bpi, legacy / 1048576.0, legacy_bpi,
                legacy_bpi / bpi);

    // AIG unique-table accounting on a synthesizable slice (the strash
    // table is the synthesis-side half of the storage overhaul).
    Netlist comb = generate_mesh(lib, 100000, 15);
    const Aig aig = Aig::from_netlist(comb);
    std::printf("  aig slice: %zu ands, %llu strash hits, %.1f MiB table+nodes\n",
                aig.num_ands(),
                static_cast<unsigned long long>(aig.strash_hits()),
                aig.memory_bytes() / 1048576.0);

    // --- hierarchical flow --------------------------------------------------
    std::printf("hier flow: %d blocks, full staged pipeline per block...\n",
                kBlocks);
    const RunStats rs = run_megascale(nl, node, kBlocks, 1);
    const HierFlowResult& hier = rs.hier;
    if (!hier.top.error.empty()) {
        std::printf("FAIL: %s\n", hier.top.error.c_str());
        return 1;
    }
    const std::size_t off_grid = off_grid_cells(*hier.merged, node);
    std::printf("  cut %zu nets, %zu boundary nets, not routed at top; %zu "
                "cells off the row/site grid\n",
                hier.cut_nets, hier.boundary_nets, off_grid);
    std::printf("  top: %zu instances, hpwl %.0f um, critical %.1f ps, "
                "wns %.1f ps\n",
                hier.top.instances, hier.top.hpwl_um,
                hier.top.critical_delay_ps, hier.top.wns_ps);
    std::printf("  flow %.1f s -> %.3e instances/day; peak rss %.0f MiB\n",
                rs.flow_s, rs.inst_per_day, bench::peak_rss_mb());

    {
        server::JsonValue entry = server::JsonValue::object();
        entry.set("instances", nl.num_instances());
        entry.set("nets", nl.num_nets());
        entry.set("bytes_per_inst", bpi);
        entry.set("legacy_bytes_per_inst", legacy_bpi);
        entry.set("shrink_ratio", legacy_bpi / bpi);
        entry.set("blocks", kBlocks);
        entry.set("cut_nets", hier.cut_nets);
        entry.set("boundary_nets", hier.boundary_nets);
        entry.set("flow_s", rs.flow_s);
        entry.set("inst_per_day", rs.inst_per_day);
        entry.set("peak_rss_mb", bench::peak_rss_mb());
        entry.set("critical_delay_ps", hier.top.critical_delay_ps);
        entry.set("wns_ps", hier.top.wns_ps);
        entry.set("route_wirelength", hier.top.route_wirelength);
        entry.set("aig_strash_hits", aig.strash_hits());
        bench::write_json_entry("BENCH_megascale.json", "e5_megascale", entry);
        std::printf("wrote BENCH_megascale.json entry e5_megascale\n");
    }

    std::printf("\npaper claim: 5-6M instance sub-chips with ~1M inst/day "
                "throughput\n\n");
    bool ok = bench::shape_check("design has at least 2M instances",
                                 nl.num_instances() >= 2'000'000);
    ok &= bench::shape_check("storage shrink at least 2x vs legacy layout",
                             legacy_bpi / bpi >= 2.0);
    ok &= bench::shape_check("merged netlist carries every instance",
                             hier.top.instances == nl.num_instances());
    ok &= bench::shape_check("flow throughput exceeds 1M instances/day",
                             rs.inst_per_day > 1e6);
    ok &= bench::shape_check("every merged cell on the row/site grid", off_grid == 0);
    return ok ? 0 : 1;
}
