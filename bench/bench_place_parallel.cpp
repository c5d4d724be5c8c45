/// E5 (Rossi) follow-up: after batch-parallel flow jobs and batch-parallel
/// routing, this bench measures the detailed placer parallelized *within*
/// one design. sa_refine runs on the speculative region-ownership engine
/// (docs/PLACE.md): worker slots draw, evaluate and Metropolis-decide whole
/// regions of moves against the round-frozen NetBBoxCache, and accepted
/// moves commit serially in region/draw order, so the result is
/// byte-identical for any worker count while the sa_refine stage speeds up
/// with cores. Table: refine wall time at 1/2/4/8 workers on an E5-class
/// mesh; the >= 2x @ 4 workers check is gated on hardware_concurrency() >= 4
/// like bench_route_parallel and is printed only (wall time), while the
/// deterministic checks make the full mode exit 1 when one fails.
///
/// `--smoke` runs a scaled-down worker-invariance + accounting check as a
/// ctest unit (nonzero exit on failure; no BENCH file update).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench_common.hpp"
#include "janus/place/analytic_place.hpp"
#include "janus/place/legalize.hpp"
#include "janus/place/sa_place.hpp"

using namespace janus;

namespace {

bool identical(const SaPlaceResult& a, const SaPlaceResult& b,
               const Netlist& na, const Netlist& nb) {
    if (a.total_moves != b.total_moves ||
        a.accepted_moves != b.accepted_moves ||
        a.rejected_moves != b.rejected_moves ||
        a.drawn_moves != b.drawn_moves ||
        a.attempted_draws != b.attempted_draws ||
        a.degenerate_draws != b.degenerate_draws ||
        a.regions != b.regions || a.rounds != b.rounds ||
        a.local_defers != b.local_defers ||
        a.commit_aborts != b.commit_aborts ||
        a.abandoned_moves != b.abandoned_moves ||
        a.initial_hpwl_um != b.initial_hpwl_um ||
        a.final_hpwl_um != b.final_hpwl_um ||
        a.accumulated_hpwl_um != b.accumulated_hpwl_um ||
        na.num_instances() != nb.num_instances()) {
        return false;
    }
    for (InstId i = 0; i < na.num_instances(); ++i) {
        if (na.instance(i).position != nb.instance(i).position) return false;
    }
    return true;
}

/// A placed-and-legalized mesh ready for refinement.
Netlist make_design(const std::shared_ptr<const CellLibrary>& lib,
                    const TechnologyNode& node, std::size_t gates,
                    PlacementArea* area_out) {
    Netlist nl = generate_mesh(lib, gates, 15);
    const PlacementArea area = make_placement_area(nl, node, 0.65);
    analytic_place(nl, area);
    legalize(nl, area);
    *area_out = area;
    return nl;
}

/// Scaled-down correctness run for ctest: byte-identity across 1/2/4/8
/// workers plus the counter lifecycle identities, on a design small enough
/// to stay fast under TSan.
int run_smoke(const std::shared_ptr<const CellLibrary>& lib,
              const TechnologyNode& node) {
    std::printf("bench_place_parallel --smoke\n");
    PlacementArea area;
    const Netlist base_nl = make_design(lib, node, 2500, &area);
    SaPlaceOptions opts;
    opts.moves_per_cell = 8;

    Netlist serial_out = base_nl;
    SaPlaceResult base;
    bool ok = true;
    for (const int workers : {1, 2, 4, 8}) {
        Netlist nl = base_nl;
        SaPlaceOptions o = opts;
        o.workers = workers;
        const SaPlaceResult res = sa_refine(nl, area, o);
        if (workers == 1) {
            base = res;
            serial_out = std::move(nl);
        } else if (!identical(base, res, serial_out, nl)) {
            std::printf("FAIL: result differs at %d workers\n", workers);
            ok = false;
        }
    }
    const bool lifecycle =
        base.drawn_moves == base.accepted_moves + base.rejected_moves +
                                base.abandoned_moves &&
        base.total_moves == base.accepted_moves + base.rejected_moves +
                                base.commit_aborts &&
        base.attempted_draws == base.drawn_moves + base.degenerate_draws;
    if (!lifecycle) {
        std::printf("FAIL: counter lifecycle identities violated\n");
        ok = false;
    }
    if (base.rounds == 0 || base.moves_per_round() < 32.0) {
        std::printf("FAIL: batching efficiency floor (%.1f moves/round)\n",
                    base.moves_per_round());
        ok = false;
    }
    std::printf("%s: %zu moves, %zu rounds, %.0f moves/round, commit rate "
                "%.3f\n",
                ok ? "PASS" : "FAIL", base.total_moves, base.rounds,
                base.moves_per_round(), base.commit_rate());
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const auto lib = bench::make_lib();
    const auto node = *find_node("28nm");
    if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
        return run_smoke(lib, node);
    }

    bench::banner("E5 bench_place_parallel", "Domenico Rossi (ST)",
                  "deterministic speculative region-parallel detailed "
                  "placement inside one P&R job");
    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("hardware_concurrency: %u\n\n", hw);

    // E5-class datapath mesh, analytically placed and legalized once; every
    // worker count refines the same frozen starting placement.
    PlacementArea area;
    const Netlist base_nl = make_design(lib, node, 40000, &area);

    SaPlaceOptions sopts;
    sopts.moves_per_cell = 12;

    SaPlaceResult base;
    Netlist base_out = base_nl;  // overwritten by the serial run's output
    double serial_ms = 0, four_ms = 0;
    bool all_identical = true;
    std::printf("%8s %10s %8s %8s %11s %12s %6s\n", "workers", "refine_ms",
                "rounds", "aborts", "moves/round", "hpwl_um", "speedup");
    for (const int workers : {1, 2, 4, 8}) {
        Netlist nl = base_nl;
        SaPlaceOptions opts = sopts;
        opts.workers = workers;
        const auto t0 = std::chrono::steady_clock::now();
        SaPlaceResult res = sa_refine(nl, area, opts);
        const double ms = bench::ms_since(t0);
        std::printf("%8d %10.0f %8zu %8zu %11.0f %12.0f %5.2fx\n", workers,
                    ms, res.rounds, res.commit_aborts, res.moves_per_round(),
                    res.final_hpwl_um, workers == 1 ? 1.0 : serial_ms / ms);
        if (workers == 1) {
            serial_ms = ms;
            base = res;
            base_out = std::move(nl);
        } else {
            all_identical &= identical(base, res, base_out, nl);
        }
        if (workers == 4) four_ms = ms;
    }

    const double refine_ipd = static_cast<double>(base_nl.num_instances()) /
                              (four_ms / 1000.0) * 86400.0;
    {
        server::JsonValue entry = server::JsonValue::object();
        entry.set("instances", base_nl.num_instances());
        entry.set("refine_inst_per_day_4w", refine_ipd);
        entry.set("refine_ms_1w", serial_ms);
        entry.set("refine_ms_4w", four_ms);
        entry.set("moves", base.total_moves);
        entry.set("accepted", base.accepted_moves);
        entry.set("regions", base.regions);
        entry.set("rounds", base.rounds);
        entry.set("aborts", base.commit_aborts);
        entry.set("moves_per_round", base.moves_per_round());
        entry.set("commit_rate", base.commit_rate());
        entry.set("hpwl_before_um", base.initial_hpwl_um);
        entry.set("hpwl_after_um", base.final_hpwl_um);
        const std::string path = bench::write_json_entry(
            "BENCH_place.json", "place_parallel", entry);
        std::printf("\nwrote %s entry place_parallel\n", path.c_str());
    }

    std::printf("\npaper claim: P&R throughput approaching 1M instances/day —\n"
                "intra-design placement parallelism closes the detailed-\n"
                "placement gap in the farm\n\n");
    bool ok = bench::shape_check(
        "region engine keeps whole-round batches (>= 32 moves/round)",
        base.moves_per_round() >= 32.0);
    ok &= bench::shape_check("speculation healthy (commit rate >= 0.5)",
                             base.commit_rate() >= 0.5);
    ok &= bench::shape_check("refine improved HPWL (final <= initial)",
                             base.final_hpwl_um <= base.initial_hpwl_um);
    ok &= bench::shape_check(
        "final HPWL exact: |accumulated - final| <= 1e-6 * final",
        std::abs(base.accumulated_hpwl_um - base.final_hpwl_um) <=
            1e-6 * base.final_hpwl_um);
    ok &= bench::shape_check("placement byte-identical at 2/4/8 workers",
                             all_identical);
    if (hw >= 4) {
        bench::shape_check("4 workers cut refine wall time >= 2x",
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
