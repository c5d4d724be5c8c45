/// E1 (Domic) follow-up: after QoR, synthesis *throughput*. The refactoring
/// pass is an eval-parallel / commit-serial engine (docs/SYNTH.md): per-cut
/// truth tables, memoized Espresso covers and candidate estimates evaluate
/// concurrently per topological level against the frozen AIG, while the
/// replacement commits stay serial in node order — so the output is
/// byte-identical for any worker count and with the SOP memo cache on or
/// off. Table: refactor wall time at 1/2/4/8 workers on a ~60k-AND
/// generator design, the memo cache's measured Espresso-call reduction,
/// and the MFFC work counters that retire the historical O(n^2) refcount
/// copies. The >= 2x @ 4 workers check is gated on
/// hardware_concurrency() >= 4 like the route/place benches. A last row
/// runs never-repeated 10k-gate designs through one FlowEngine, whose memo
/// outlives each job: per-design optimize time with a cold memo (a fresh
/// engine) and a warm one, Espresso calls, and the memo's size.
///
/// `--smoke` runs a scaled-down byte-identity check as a ctest unit:
/// optimize + tech_map at 1 and 4 workers and optimize with the memo cache
/// on and off, then a warm engine against a fresh one (nonzero exit on a
/// mismatch; no BENCH file update).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "janus/flow/flow_engine.hpp"
#include "janus/logic/aig.hpp"
#include "janus/logic/aig_rewrite.hpp"
#include "janus/logic/sop_cache.hpp"
#include "janus/logic/tech_map.hpp"
#include "janus/netlist/io.hpp"

using namespace janus;
using bench::ms_since;

namespace {

/// Full structural serialization; equal strings == byte-identical AIGs.
std::string serialize(const Aig& aig) {
    std::ostringstream os;
    os << aig.num_nodes() << ';';
    for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
        if (!aig.is_and(n)) continue;
        os << n << ':' << aig.fanin0(n) << ',' << aig.fanin1(n) << ';';
    }
    for (const auto& [name, lit] : aig.outputs()) os << name << '=' << lit << ';';
    return os.str();
}

/// One design run to `map` on `engine`: the optimize stage's wall time,
/// Espresso calls and memo size after the stage, and the mapped netlist.
struct EngineRun {
    double optimize_ms = 0;
    std::int64_t espresso = 0;
    std::int64_t memo_entries = 0;
    std::string mapped;
};

EngineRun run_to_map(const FlowEngine& engine, const Netlist& nl,
                     const FlowParams& params = {}) {
    FlowContext ctx(nl, *find_node("28nm"), params);
    engine.run_to(ctx, "map");
    const StageTraceEntry& opt = ctx.trace.entries.at(0);
    return {opt.wall_ms, opt.note_int("espresso"), opt.note_int("memo_entries"),
            netlist_to_string(ctx.netlist)};
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Scaled-down correctness run for ctest: the synth_random path (optimize,
/// then tech_map) on a 2k-gate design must be byte-identical at 1 and 4
/// workers and with the SOP memo cache on or off; an engine whose memo is
/// warm from another design must map it exactly as a fresh engine does,
/// and must run no Espresso when the design repeats.
int run_smoke(const std::shared_ptr<const CellLibrary>& lib) {
    std::printf("bench_synth_parallel --smoke\n");
    GeneratorConfig cfg;
    cfg.num_inputs = 32;
    cfg.num_outputs = 16;
    cfg.num_gates = 2000;
    cfg.xor_fraction = 0.3;
    cfg.seed = 7;
    const Netlist design = generate_random(lib, cfg);
    const Aig aig = Aig::from_netlist(design).cleanup();

    bool ok = true;
    std::string base_aig, base_mapped, memo_off_mapped;
    RewriteStats base_stats;
    // (workers, memo cache): the first run is the reference.
    for (const auto& [workers, memo] : {std::pair{1, true}, {4, true}, {1, false}}) {
        RewriteOptions opts;
        opts.workers = workers;
        opts.use_sop_cache = memo;
        RewriteStats rs;
        const Aig out = optimize(aig, 4, opts, &rs);
        TechMapOptions mopts;
        mopts.workers = workers;
        const std::string mapped = netlist_to_string(tech_map(out, lib, mopts));
        if (!memo) memo_off_mapped = mapped;
        if (base_aig.empty()) {
            base_aig = serialize(out);
            base_mapped = mapped;
            base_stats = rs;
            continue;
        }
        if (serialize(out) != base_aig || rs.cuts_evaluated != base_stats.cuts_evaluated ||
            rs.replacements != base_stats.replacements) {
            std::printf("FAIL: optimize differs at %d workers, memo %s\n", workers,
                        memo ? "on" : "off");
            ok = false;
        }
        if (mapped != base_mapped) {
            std::printf("FAIL: tech_map differs at %d workers, memo %s\n", workers,
                        memo ? "on" : "off");
            ok = false;
        }
    }

    // The engine's memo outlives each job: warm it on another design first.
    FlowParams params;
    params.optimize_rounds = 4;  // the rounds of the optimize() calls above
    FlowEngine warm;
    cfg.seed = 8;
    (void)run_to_map(warm, generate_random(lib, cfg), params);
    const EngineRun first = run_to_map(warm, design, params);
    const EngineRun fresh = run_to_map(FlowEngine(), design, params);
    const EngineRun repeat = run_to_map(warm, design, params);
    if (first.mapped != fresh.mapped || first.mapped != memo_off_mapped) {
        std::printf("FAIL: a warm engine maps differently from a fresh engine or "
                    "the memo-off run\n");
        ok = false;
    }
    if (repeat.espresso != 0) {
        std::printf("FAIL: a repeated design ran %lld Espresso calls on a warm engine\n",
                    static_cast<long long>(repeat.espresso));
        ok = false;
    }

    std::printf("%s: %zu -> %zu AND nodes, %llu cuts, %d replacements, %llu espresso "
                "calls (warm engine: %lld, repeated design: %lld)\n",
                ok ? "PASS" : "FAIL", base_stats.nodes_before, base_stats.nodes_after,
                static_cast<unsigned long long>(base_stats.cuts_evaluated),
                base_stats.replacements,
                static_cast<unsigned long long>(base_stats.espresso_calls),
                static_cast<long long>(first.espresso),
                static_cast<long long>(repeat.espresso));
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const auto lib = bench::make_lib();
    if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke(lib);

    bench::banner("E1 bench_synth_parallel", "Antun Domic (Synopsys)",
                  "deterministic eval-parallel + memoized logic refactoring "
                  "inside one synthesis job");
    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("hardware_concurrency: %u\n\n", hw);

    // ~60k-AND irregular design: random generator (not the mesh) so the cut
    // function population is diverse and the memo cache is honestly loaded.
    GeneratorConfig cfg;
    cfg.num_inputs = 96;
    cfg.num_outputs = 64;
    cfg.num_gates = 50000;
    cfg.xor_fraction = 0.25;
    cfg.seed = 7;
    const Aig aig = Aig::from_netlist(generate_random(lib, cfg)).cleanup();
    std::printf("design: %zu AND nodes, %zu inputs, depth %d\n\n",
                aig.num_ands(), aig.num_inputs(), aig.depth());

    // --- refactor wall time vs workers, cold memo cache per run -----------
    std::string base_ser;
    RewriteStats base_stats;
    double serial_ms = 0, four_ms = 0;
    bool all_identical = true;
    std::printf("%8s %11s %12s %10s %10s %8s %7s\n", "workers", "refactor_ms",
                "cuts", "memo_hits", "espresso", "replaced", "speedup");
    for (const int workers : {1, 2, 4, 8}) {
        RewriteOptions opts;
        opts.workers = workers;
        RewriteStats rs;
        const auto t0 = std::chrono::steady_clock::now();
        const Aig out = refactor(aig, opts, &rs);
        const double ms = ms_since(t0);
        std::printf("%8d %11.0f %12llu %10llu %10llu %8d %6.2fx\n", workers, ms,
                    static_cast<unsigned long long>(rs.cuts_evaluated),
                    static_cast<unsigned long long>(rs.memo_hits),
                    static_cast<unsigned long long>(rs.espresso_calls),
                    rs.replacements, workers == 1 ? 1.0 : serial_ms / ms);
        if (workers == 1) {
            serial_ms = ms;
            base_stats = rs;
            base_ser = serialize(out);
        } else {
            all_identical &= serialize(out) == base_ser;
        }
        if (workers == 4) four_ms = ms;
    }

    // --- memo cache ablation: identical QoR, fewer Espresso runs ----------
    RewriteOptions no_memo;
    no_memo.use_sop_cache = false;
    no_memo.workers = 4;
    RewriteStats off_stats;
    auto t0 = std::chrono::steady_clock::now();
    const Aig out_off = refactor(aig, no_memo, &off_stats);
    const double memo_off_ms = ms_since(t0);
    RewriteOptions with_memo = no_memo;
    with_memo.use_sop_cache = true;
    RewriteStats on_stats;
    t0 = std::chrono::steady_clock::now();
    const Aig out_on = refactor(aig, with_memo, &on_stats);
    const double memo_on_ms = ms_since(t0);
    const bool memo_identical = serialize(out_on) == serialize(out_off);
    const double queries =
        static_cast<double>(on_stats.memo_hits + on_stats.memo_misses);
    const double reduction =
        queries / static_cast<double>(on_stats.espresso_calls);
    std::printf("\nmemo cache @4w:   off %.0f ms / %llu espresso calls, "
                "on %.0f ms / %llu calls (%.1fx fewer, hit rate %.1f%%)\n",
                memo_off_ms,
                static_cast<unsigned long long>(off_stats.espresso_calls),
                memo_on_ms,
                static_cast<unsigned long long>(on_stats.espresso_calls),
                reduction, 100.0 * static_cast<double>(on_stats.memo_hits) /
                               queries);

    // --- MFFC work: incremental trial-deref vs historical refcount copies -
    MffcStats mffc;
    t0 = std::chrono::steady_clock::now();
    const auto sizes = mffc_sizes(aig, &mffc);
    const double mffc_ms = ms_since(t0);
    const double old_copy_work = static_cast<double>(aig.num_ands()) *
                                 static_cast<double>(aig.num_nodes());
    const double mffc_work =
        static_cast<double>(mffc.cone_visits + mffc.scratch_writes);
    std::printf("mffc:             %.0f ms, %llu cone visits + %llu scratch "
                "writes vs %.2e old per-node array copies (%.0fx less work)\n",
                mffc_ms, static_cast<unsigned long long>(mffc.cone_visits),
                static_cast<unsigned long long>(mffc.scratch_writes),
                old_copy_work, old_copy_work / mffc_work);
    (void)sizes;

    // --- one engine over never-repeated designs: the memo outlives jobs ---
    // The synth_random e2e designs' shape, on seeds no other row uses. Each
    // design runs cold (a fresh engine) and then warm (the shared engine,
    // which has seen only the designs before it).
    constexpr int kDistinct = 16;
    GeneratorConfig dcfg;
    dcfg.num_inputs = 128;
    dcfg.num_outputs = 64;
    dcfg.num_gates = 10000;
    dcfg.xor_fraction = 0.3;
    FlowEngine engine;
    std::vector<double> cold_ms, warm_ms, cold_espresso, warm_espresso;
    server::JsonValue per_design = server::JsonValue::array();
    bool distinct_identical = true;
    std::printf("\ndistinct designs through one engine (%zu gates each):\n"
                "%7s %8s %8s %13s %13s %12s %9s\n",
                dcfg.num_gates, "design", "cold_ms", "warm_ms", "cold_espresso",
                "warm_espresso", "memo_entries", "memo_MiB");
    for (int d = 0; d < kDistinct; ++d) {
        dcfg.seed = 1000 + static_cast<std::uint64_t>(d);
        const Netlist nl = generate_random(lib, dcfg);
        const EngineRun cold = run_to_map(FlowEngine(), nl);
        const EngineRun warm = run_to_map(engine, nl);
        distinct_identical &= warm.mapped == cold.mapped;
        const std::size_t bytes = engine.sop_memo().memory_bytes();
        cold_ms.push_back(cold.optimize_ms);
        warm_ms.push_back(warm.optimize_ms);
        cold_espresso.push_back(static_cast<double>(cold.espresso));
        warm_espresso.push_back(static_cast<double>(warm.espresso));
        std::printf("%7d %8.0f %8.0f %13lld %13lld %12lld %9.1f\n", d, cold.optimize_ms,
                    warm.optimize_ms, static_cast<long long>(cold.espresso),
                    static_cast<long long>(warm.espresso),
                    static_cast<long long>(warm.memo_entries),
                    static_cast<double>(bytes) / (1024.0 * 1024.0));
        server::JsonValue row = server::JsonValue::object();
        row.set("cold_optimize_ms", cold.optimize_ms);
        row.set("warm_optimize_ms", warm.optimize_ms);
        row.set("cold_espresso", cold.espresso);
        row.set("warm_espresso", warm.espresso);
        row.set("memo_entries", warm.memo_entries);
        row.set("memo_bytes", bytes);
        per_design.push(std::move(row));
    }
    const double cold_median = median(cold_ms);
    const double warm_median = median(warm_ms);
    const std::size_t memo_entries = engine.sop_memo().size();
    const std::size_t memo_bytes = engine.sop_memo().memory_bytes();
    std::printf("median optimize: cold %.0f ms, warm %.0f ms (%.2fx); memo %zu entries, "
                "%zu bytes (%.0f per entry)\n",
                cold_median, warm_median, cold_median / warm_median, memo_entries,
                memo_bytes, static_cast<double>(memo_bytes) / static_cast<double>(memo_entries));
    {
        server::JsonValue entry = server::JsonValue::object();
        entry.set("designs", kDistinct);
        entry.set("gates", dcfg.num_gates);
        entry.set("cold_optimize_ms_median", cold_median);
        entry.set("warm_optimize_ms_median", warm_median);
        entry.set("warm_over_cold", warm_median / cold_median);
        entry.set("cold_espresso_median", median(cold_espresso));
        entry.set("warm_espresso_median", median(warm_espresso));
        entry.set("memo_entries", memo_entries);
        entry.set("memo_bytes", memo_bytes);
        entry.set("per_design", std::move(per_design));
        bench::write_json_entry("BENCH_synth.json", "synth_distinct_designs", entry);
    }

    {
        server::JsonValue entry = server::JsonValue::object();
        entry.set("ands", aig.num_ands());
        entry.set("refactor_ms_1w", serial_ms);
        entry.set("refactor_ms_4w", four_ms);
        entry.set("speedup_4w", serial_ms / four_ms);
        entry.set("cuts_evaluated", base_stats.cuts_evaluated);
        entry.set("memo_hits", on_stats.memo_hits);
        entry.set("memo_misses", on_stats.memo_misses);
        entry.set("espresso_calls", on_stats.espresso_calls);
        entry.set("espresso_calls_no_memo", off_stats.espresso_calls);
        entry.set("espresso_reduction", reduction);
        entry.set("memo_on_ms_4w", memo_on_ms);
        entry.set("memo_off_ms_4w", memo_off_ms);
        entry.set("mffc_cone_visits", mffc.cone_visits);
        entry.set("mffc_scratch_writes", mffc.scratch_writes);
        entry.set("mffc_old_copy_work", old_copy_work);
        bench::write_json_entry("BENCH_synth.json", "synth_parallel", entry);
        std::printf("\nwrote BENCH_synth.json entries synth_parallel and "
                    "synth_distinct_designs\n");
    }

    std::printf("\npaper claim: the last decade's synthesis gains came with "
                "runtime\nheadroom — intra-pass parallelism and memoization "
                "keep the optimize\nstage off the flow's critical path\n\n");
    bench::shape_check("refactoring byte-identical at 2/4/8 workers",
                       all_identical);
    bench::shape_check("memo cache on/off byte-identical QoR", memo_identical);
    bench::shape_check("memo cache cut Espresso calls (reduction >= 1.5x)",
                       reduction >= 1.5 &&
                           on_stats.espresso_calls < off_stats.espresso_calls);
    bench::shape_check("mffc incremental work < 1/10 of old refcount copies",
                       mffc_work < old_copy_work / 10.0);
    bench::shape_check("warm engine maps never-seen designs byte-identically",
                       distinct_identical);
    bench::shape_check("warm-memo optimize on never-seen designs <= 1/2 of cold "
                       "(median)",
                       warm_median <= cold_median / 2.0);
    if (hw >= 4) {
        bench::shape_check("4 workers cut refactor wall time >= 2x",
                           serial_ms / four_ms >= 2.0);
    } else {
        std::printf(
            "NOTE: only %u hardware thread(s) visible — the >= 2x @ 4 workers "
            "check needs >= 4 cores and is skipped here (byte-identity above "
            "is the correctness half of the claim).\n",
            hw);
    }
    return 0;
}
