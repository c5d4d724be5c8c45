/// E5 (Rossi) follow-up: run_batch parallelized *across* flow jobs; this
/// bench measures the router parallelized *within* one design. The
/// negotiation loop bins congested nets into gcell ownership panels, each
/// worker slot reroutes its panels' chains against a private copy of the
/// round-frozen grid, and commits serially in panel/net order with
/// conflicted chains re-queued (docs/ROUTING.md), so the result is
/// byte-identical for any worker count while the route stage speeds up
/// with cores. Table: route wall time at 1/2/4/8 workers on the E5-class
/// mesh; the >= 2x @ 4 workers check is gated on
/// hardware_concurrency() >= 4 like bench_batch_throughput and is printed
/// only (wall time), while the deterministic checks make the full mode exit
/// 1 when one fails.
///
/// `--smoke` runs a scaled-down worker-invariance + accounting check as a
/// ctest unit (nonzero exit on failure; no BENCH file update).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench_common.hpp"
#include "janus/place/analytic_place.hpp"
#include "janus/place/legalize.hpp"
#include "janus/route/global_router.hpp"

using namespace janus;

namespace {

bool identical(const GlobalRouteResult& a, const GlobalRouteResult& b) {
    if (a.total_wirelength != b.total_wirelength ||
        a.total_overflow != b.total_overflow ||
        a.overflowed_edges != b.overflowed_edges ||
        a.iterations != b.iterations ||
        a.search_cells_expanded != b.search_cells_expanded ||
        a.pattern_cells != b.pattern_cells ||
        a.reroute_rounds != b.reroute_rounds ||
        a.reroute_conflicts != b.reroute_conflicts ||
        a.speculated_nets != b.speculated_nets ||
        a.committed_nets != b.committed_nets || a.panels != b.panels ||
        a.nets.size() != b.nets.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.nets.size(); ++i) {
        if (a.nets[i].net != b.nets[i].net ||
            a.nets[i].segments.size() != b.nets[i].segments.size()) {
            return false;
        }
        for (std::size_t s = 0; s < a.nets[i].segments.size(); ++s) {
            if (a.nets[i].segments[s].cells != b.nets[i].segments[s].cells) {
                return false;
            }
        }
    }
    return true;
}

/// Mesh design placed + legalized, with the gcell grid and derated capacity
/// tuned so the negotiation loop (the parallelized path) carries real load.
Netlist make_design(const std::shared_ptr<const CellLibrary>& lib,
                    const TechnologyNode& node, std::size_t gates,
                    double capacity_frac, PlacementArea* area_out,
                    GlobalRouteOptions* ropts_out) {
    Netlist nl = generate_mesh(lib, gates, 15);
    const PlacementArea area = make_placement_area(nl, node, 0.65);
    analytic_place(nl, area);
    legalize(nl, area);
    GlobalRouteOptions ropts;
    ropts.gcells_x = ropts.gcells_y =
        std::max(24, static_cast<int>(area.die.width() / 3000));
    const double gcell_nm =
        static_cast<double>(area.die.width()) / ropts.gcells_x;
    ropts.capacity_per_layer = capacity_frac * gcell_nm / node.metal_pitch_nm;
    *area_out = area;
    *ropts_out = ropts;
    return nl;
}

/// Scaled-down correctness run for ctest: byte-identity across 1/2/4/8
/// workers plus the speculation accounting identity, on a congested design
/// small enough to stay fast under TSan.
int run_smoke(const std::shared_ptr<const CellLibrary>& lib,
              const TechnologyNode& node) {
    std::printf("bench_route_parallel --smoke\n");
    PlacementArea area;
    GlobalRouteOptions ropts;
    const Netlist nl = make_design(lib, node, 3000, 0.45, &area, &ropts);
    // The small mesh routes cleanly at production capacity; starve the grid
    // so the first pass overflows and the speculative path actually runs.
    // The overflow never fully resolves at this starvation level, so cap
    // the rip-up iterations to keep the smoke fast (also under TSan).
    ropts.routing_layers = 2;
    ropts.max_iterations = 3;

    GlobalRouteResult base;
    bool ok = true;
    for (const int workers : {1, 2, 4, 8}) {
        GlobalRouteOptions opts = ropts;
        opts.route_workers = workers;
        auto res = route_design(nl, area, opts);
        if (workers == 1) {
            base = std::move(res);
        } else if (!identical(base, res)) {
            std::printf("FAIL: result differs at %d workers\n", workers);
            ok = false;
        }
    }
    if (base.reroute_rounds == 0) {
        std::printf("FAIL: negotiation loop never ran — smoke design is not "
                    "congested enough to test the parallel path\n");
        ok = false;
    }
    if (base.speculated_nets != base.committed_nets + base.reroute_conflicts) {
        std::printf("FAIL: speculation accounting identity violated\n");
        ok = false;
    }
    std::printf("%s: %zu speculated, %zu committed, %zu rounds, "
                "%.0f nets/round, commit rate %.3f\n",
                ok ? "PASS" : "FAIL", base.speculated_nets,
                base.committed_nets, base.reroute_rounds,
                base.nets_per_round(), base.commit_rate());
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const auto lib = bench::make_lib();
    const auto node = *find_node("28nm");
    if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
        return run_smoke(lib, node);
    }

    bench::banner("E5 bench_route_parallel", "Domenico Rossi (ST)",
                  "deterministic speculative panel-parallel routing inside "
                  "one P&R job");
    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("hardware_concurrency: %u\n\n", hw);

    // The E5 scaling ladder's large rung: datapath mesh, physical gcell
    // grid and capacity (same formulas as bench_e5_pnr_throughput, capacity
    // derated to 0.55 so negotiation carries real load).
    PlacementArea area;
    GlobalRouteOptions ropts;
    const Netlist nl = make_design(lib, node, 150000, 0.55, &area, &ropts);

    GlobalRouteResult base;
    double serial_ms = 0, four_ms = 0;
    bool all_identical = true;
    std::printf("%8s %10s %7s %8s %10s %10s %6s\n", "workers", "route_ms",
                "rounds", "aborts", "nets/round", "overflow", "speedup");
    for (const int workers : {1, 2, 4, 8}) {
        GlobalRouteOptions opts = ropts;
        opts.route_workers = workers;
        const auto t0 = std::chrono::steady_clock::now();
        auto res = route_design(nl, area, opts);
        const double ms = bench::ms_since(t0);
        std::printf("%8d %10.0f %7zu %8zu %10.0f %10.0f %5.2fx\n", workers,
                    ms, res.reroute_rounds, res.reroute_conflicts,
                    res.nets_per_round(), res.total_overflow,
                    workers == 1 ? 1.0 : serial_ms / ms);
        if (workers == 1) {
            serial_ms = ms;
            base = std::move(res);
        } else {
            all_identical &= identical(base, res);
        }
        if (workers == 4) four_ms = ms;
    }

    const double route_ipd = static_cast<double>(nl.num_instances()) /
                             (four_ms / 1000.0) * 86400.0;
    {
        server::JsonValue entry = server::JsonValue::object();
        entry.set("instances", nl.num_instances());
        entry.set("route_inst_per_day_4w", route_ipd);
        entry.set("route_ms_1w", serial_ms);
        entry.set("route_ms_4w", four_ms);
        entry.set("rounds", base.reroute_rounds);
        entry.set("conflicts", base.reroute_conflicts);
        entry.set("speculated", base.speculated_nets);
        entry.set("committed", base.committed_nets);
        entry.set("nets_per_round", base.nets_per_round());
        entry.set("commit_rate", base.commit_rate());
        entry.set("cells_expanded", base.search_cells_expanded);
        entry.set("overflow", base.total_overflow);
        const std::string path = bench::write_json_entry(
            "BENCH_route.json", "route_parallel", entry);
        std::printf("\nwrote %s entry route_parallel\n", path.c_str());
    }

    std::printf("\npaper claim: P&R throughput approaching 1M instances/day —\n"
                "intra-design route parallelism is the second half of the farm\n\n");
    bool ok = bench::shape_check(
        "negotiation loop actually exercised (rounds > 0)",
        base.reroute_rounds > 0);
    ok &= bench::shape_check(
        "panel engine keeps whole-round batches (>= 4 nets/round)",
        base.nets_per_round() >= 4.0);
    ok &= bench::shape_check(
        "speculated == committed + conflicts",
        base.speculated_nets == base.committed_nets + base.reroute_conflicts);
    // Floor pinned with the conflict-feedback panel sizing: the fixed 8x8
    // grid committed only 27.6% of its speculation at this scale.
    ok &= bench::shape_check("speculation commit rate at least 50%",
                             base.commit_rate() >= 0.5);
    ok &= bench::shape_check("route result byte-identical at 2/4/8 workers",
                             all_identical);
    if (hw >= 4) {
        bench::shape_check("4 workers cut route wall time >= 2x",
                           serial_ms / four_ms >= 2.0);
    } else {
        std::printf(
            "NOTE: only %u hardware thread(s) visible — the >= 2x @ 4 workers "
            "check needs >= 4 cores and is skipped here (byte-identity above "
            "is the correctness half of the claim).\n",
            hw);
    }
    return ok ? 0 : 1;
}
