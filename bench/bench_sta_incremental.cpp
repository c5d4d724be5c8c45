/// E5/E6 follow-up: fast timing-closure loops need an STA that does not
/// restart from zero on every query. This bench measures the TimingGraph
/// engine along both axes it adds (docs/TIMING.md):
///
///  - incremental: instances re-evaluated by a single-cell resize +
///    update() versus the 2 x num_instances evaluations a full STA pays,
///    across the generator-netlist scaling ladder;
///  - parallel: full-analysis wall time at 1/2/4/8 workers on a wide
///    design, with the bit-identity contract checked against serial;
///  - end-to-end: size_for_timing (incremental loop) versus the historical
///    full-STA-per-pass loop at the 60k rung, with QoR compared bitwise.
///
/// `--smoke` runs a scaled-down identity check as a ctest unit: full
/// analysis at 1/2/4/8 workers on a design with a level wider than
/// 2 x TimingGraph::kParallelGrain (asserted, so the multi-slot path runs),
/// and resize + update() answers against a fresh analysis (nonzero exit on
/// a mismatch; no BENCH file update). The full mode exits 1 when one of its
/// deterministic checks fails (eval ratio, worker identity, sizing QoR);
/// its sizing speedup line is printed only.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "janus/timing/sizing.hpp"
#include "janus/timing/sta.hpp"
#include "janus/timing/timing_graph.hpp"
#include "janus/util/rng.hpp"

using namespace janus;
using bench::ms_since;

namespace {

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Arrivals, requireds and slacks all bit-identical.
bool same_timing(const TimingGraph& a, const TimingGraph& b) {
    return bits_equal(a.arrivals(), b.arrivals()) &&
           bits_equal(a.requireds(), b.requireds()) &&
           bits_equal(a.slacks(), b.slacks());
}

/// Wide shallow random logic: the workload whose levels actually split
/// across the team (mesh levels are only ~sqrt(n) wide).
Netlist wide_design(const std::shared_ptr<const CellLibrary>& lib,
                    std::size_t gates, std::size_t flops) {
    GeneratorConfig cfg;
    cfg.num_gates = gates;
    cfg.num_inputs = 512;
    cfg.num_flops = flops;
    cfg.locality = 0.0;
    cfg.seed = 15;
    return generate_random(lib, cfg);
}

int run_smoke(const std::shared_ptr<const CellLibrary>& lib) {
    std::printf("bench_sta_incremental --smoke\n");
    Netlist nl = wide_design(lib, 20000, 100);
    TimingGraph serial(nl);
    serial.analyze();
    const std::size_t widest = serial.max_level_width();
    if (widest <= 2 * TimingGraph::kParallelGrain) {
        std::printf("FAIL: widest level has %zu instances, not more than "
                    "2 x kParallelGrain = %zu\n",
                    widest, 2 * TimingGraph::kParallelGrain);
        return 1;
    }
    bool ok = true;
    for (const int workers : {2, 4, 8}) {
        StaOptions opts;
        opts.sta_workers = workers;
        TimingGraph tg(nl, opts);
        tg.analyze();
        if (!same_timing(serial, tg)) {
            std::printf("FAIL: full analysis differs at %d workers\n", workers);
            ok = false;
        }
    }

    // Resizes accumulate; after each update() the graph must answer exactly
    // what a fresh analysis of the resized netlist does.
    StaOptions opts;
    opts.sta_workers = 4;
    TimingGraph tg(nl, opts);
    tg.analyze();
    Rng rng(42);
    int updates = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const InstId i = static_cast<InstId>(rng.pick_index(nl.num_instances()));
        if (is_sequential(nl.type_of(i).function)) continue;
        const auto variants = nl.library().variants(nl.type_of(i).function);
        const std::size_t pick = variants[rng.pick_index(variants.size())];
        if (pick == nl.instance(i).type) continue;
        nl.instance(i).type = pick;
        tg.resize(i);
        tg.update();
        ++updates;
        TimingGraph fresh(nl);
        fresh.analyze();
        if (!same_timing(fresh, tg)) {
            std::printf("FAIL: update %d differs from a fresh analysis\n", updates);
            ok = false;
        }
    }
    std::printf("%s: %zu instances, %zu levels, widest %zu; 1/2/4/8 workers "
                "and %d resize updates checked\n",
                ok ? "PASS" : "FAIL", nl.num_instances(), serial.num_levels(),
                widest, updates);
    return ok ? 0 : 1;
}

// The pre-TimingGraph sizing loop: one full STA per pass plus one for the
// accept/reject decision. Decision-identical to size_for_timing, so the
// wall-time gap is purely the incremental engine.
SizingResult full_sta_sizing(Netlist& nl, const SizingOptions& opts) {
    SizingResult res;
    const CellLibrary& lib = nl.library();
    TimingReport tr = run_sta(nl, opts.sta);
    res.delay_before_ps = tr.critical_delay_ps;
    res.area_before_um2 = nl.total_area();
    for (int pass = 0; pass < kMaxSizingPasses; ++pass) {
        if (tr.met()) break;
        ++res.passes;
        std::vector<std::pair<InstId, std::size_t>> undo;
        int resized = 0;
        for (const InstId i : tr.critical_path) {
            const CellType& cur = nl.type_of(i);
            std::size_t next = nl.instance(i).type;
            for (const std::size_t v : lib.variants(cur.function)) {
                if (lib.cell(v).drive > cur.drive) {
                    next = v;
                    break;
                }
            }
            if (next == nl.instance(i).type) continue;
            undo.emplace_back(i, nl.instance(i).type);
            nl.instance(i).type = next;
            ++resized;
        }
        if (resized == 0) break;
        const TimingReport after = run_sta(nl, opts.sta);
        if (after.critical_delay_ps < tr.critical_delay_ps) {
            tr = after;
            res.cells_resized += resized;
        } else {
            for (const auto& [inst, type] : undo) nl.instance(inst).type = type;
            break;
        }
    }
    res.delay_after_ps = tr.critical_delay_ps;
    res.area_after_um2 = nl.total_area();
    return res;
}

}  // namespace

int main(int argc, char** argv) {
    const auto lib = bench::make_lib();
    if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke(lib);

    bench::banner("bench_sta_incremental", "timing engine",
                  "incremental + parallel STA makes closure loops O(cone), "
                  "not O(design)");
    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("hardware_concurrency: %u\n\n", hw);

    // ---- incremental: single-cell resizes on the scaling ladder ----------
    std::printf("%10s %10s %12s %14s %8s\n", "instances", "levels",
                "full_evals", "incr_evals", "ratio");
    double ratio_60k = 0.0;
    std::size_t evals_60k = 0, full_60k = 0;
    for (const std::size_t gates : {6000u, 20000u, 60000u}) {
        Netlist nl = generate_mesh(lib, gates, 15, 2);
        TimingGraph tg(nl);
        tg.analyze();
        // A full STA evaluates every combinational instance once per sweep;
        // forward + backward makes the per-query cost 2 x comb.
        const std::size_t comb = nl.topological_order().size();
        const std::size_t full_evals = 2 * comb;

        Rng rng(42);
        std::size_t updates = 0, evals = 0;
        for (int trial = 0; trial < 50; ++trial) {
            const InstId i = static_cast<InstId>(rng.pick_index(nl.num_instances()));
            if (is_sequential(nl.type_of(i).function)) continue;
            const auto variants = nl.library().variants(nl.type_of(i).function);
            const std::size_t pick = variants[rng.pick_index(variants.size())];
            if (pick == nl.instance(i).type) continue;
            const std::size_t old = nl.instance(i).type;
            nl.instance(i).type = pick;
            tg.resize(i);
            evals += tg.update().instances_reevaluated();
            ++updates;
            nl.instance(i).type = old;  // undo so trials stay independent
            tg.resize(i);
            evals += tg.update().instances_reevaluated();
            ++updates;
        }
        const double avg = updates ? static_cast<double>(evals) / updates : 0.0;
        const double ratio = avg > 0 ? static_cast<double>(full_evals) / avg : 0.0;
        std::printf("%10zu %10zu %12zu %14.1f %7.1fx\n", nl.num_instances(),
                    tg.num_levels(), full_evals, avg, ratio);
        if (gates == 60000u) {
            ratio_60k = ratio;
            evals_60k = static_cast<std::size_t>(avg);
            full_60k = full_evals;
        }
    }

    // ---- parallel: full-analysis sweeps on a wide design -----------------
    const Netlist wnl = wide_design(lib, 60000, 500);
    std::printf("\nwide design: %zu instances\n", wnl.num_instances());
    std::printf("%8s %12s %8s %10s\n", "workers", "analyze_ms", "speedup",
                "identical");
    TimingGraph serial(wnl);
    double serial_ms = 0, four_ms = 0;
    bool all_identical = true;
    for (const int workers : {1, 2, 4, 8}) {
        StaOptions opts;
        opts.sta_workers = workers;
        TimingGraph tg(wnl, opts);
        // Best of 3 to de-noise the short sweeps.
        double best = 1e30;
        for (int rep = 0; rep < 3; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            tg.analyze();
            best = std::min(best, ms_since(t0));
        }
        bool same = true;
        if (workers == 1) {
            serial_ms = best;
            serial.analyze();
        } else {
            same = same_timing(serial, tg);
            all_identical &= same;
        }
        if (workers == 4) four_ms = best;
        std::printf("%8d %12.2f %7.2fx %10s\n", workers, best,
                    serial_ms / best, same ? "yes" : "-");
    }

    // ---- end-to-end: sizing loop at the 60k rung -------------------------
    SizingOptions sopts;
    sopts.sta.clock_period_ps = 1.0;  // placeholder, set from nominal below
    Netlist legacy_nl = generate_mesh(lib, 60000, 15, 2);
    Netlist incr_nl = generate_mesh(lib, 60000, 15, 2);
    sopts.sta.clock_period_ps = 0.6 * run_sta(legacy_nl).critical_delay_ps;

    auto t0 = std::chrono::steady_clock::now();
    const SizingResult legacy = full_sta_sizing(legacy_nl, sopts);
    const double legacy_ms = ms_since(t0);
    t0 = std::chrono::steady_clock::now();
    const SizingResult incr = size_for_timing(incr_nl, sopts);
    const double incr_ms = ms_since(t0);

    bool qor_identical =
        legacy.passes == incr.passes &&
        legacy.cells_resized == incr.cells_resized &&
        std::memcmp(&legacy.delay_after_ps, &incr.delay_after_ps,
                    sizeof(double)) == 0 &&
        std::memcmp(&legacy.area_after_um2, &incr.area_after_um2,
                    sizeof(double)) == 0;
    for (InstId i = 0; i < legacy_nl.num_instances() && qor_identical; ++i) {
        qor_identical = legacy_nl.instance(i).type == incr_nl.instance(i).type;
    }
    const double sizing_speedup = incr_ms > 0 ? legacy_ms / incr_ms : 0.0;
    std::printf("\nsizing @ 60k: passes=%d resized=%d "
                "delay %.1f -> %.1f ps, area %.0f -> %.0f um2\n",
                incr.passes, incr.cells_resized, incr.delay_before_ps,
                incr.delay_after_ps, incr.area_before_um2, incr.area_after_um2);
    std::printf("legacy full-STA loop: %8.1f ms\n", legacy_ms);
    std::printf("incremental loop:     %8.1f ms   (%.2fx, evals=%zu)\n",
                incr_ms, sizing_speedup, incr.timing_evals);

    {
        server::JsonValue entry = server::JsonValue::object();
        entry.set("instances", 60000);
        entry.set("full_evals", full_60k);
        entry.set("incr_evals_avg", evals_60k);
        entry.set("evals_ratio", ratio_60k);
        entry.set("analyze_ms_1w", serial_ms);
        entry.set("analyze_ms_4w", four_ms);
        entry.set("sizing_legacy_ms", legacy_ms);
        entry.set("sizing_incr_ms", incr_ms);
        entry.set("sizing_speedup", sizing_speedup);
        entry.set("qor_identical", qor_identical);
        const std::string path = bench::write_json_entry(
            "BENCH_timing.json", "sta_incremental", entry);
        std::printf("\nwrote %s entry sta_incremental\n", path.c_str());
    }

    std::printf("\npaper claim: 1M-instance/day closure loops (E5) need timing\n"
                "queries that cost the cone they touch, not the design\n\n");
    bool ok = bench::shape_check(
        "single-cell resize >= 10x cheaper than full STA @ 60k", ratio_60k >= 10.0);
    ok &= bench::shape_check("parallel sweeps bit-identical at 2/4/8 workers",
                             all_identical);
    ok &= bench::shape_check("incremental sizing QoR identical to the legacy loop",
                             qor_identical);
    // Wall time depends on the machine and its load: printed, not gated.
    bench::shape_check("incremental sizing >= 2x faster than the legacy loop",
                       sizing_speedup >= 2.0);
    return ok ? 0 : 1;
}
