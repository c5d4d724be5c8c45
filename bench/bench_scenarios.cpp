/// Scenario-matrix regression harness over the ingestion corpus
/// (tests/corpus/): parses real circuits (ISCAS85 .bench, BLIF, ASCII and
/// binary AIGER), sweeps them through the full FlowEngine pipeline across
/// corner x utilization x layer-budget combinations, and diffs QoR against
/// the pinned per-scenario baselines in tests/corpus/scenario_baselines.json.
///
///   bench_scenarios                     full matrix, diff vs baselines
///   bench_scenarios --smoke             ctest subset (one-ish cell/design)
///   bench_scenarios --update-baselines  rewrite the pinned baselines
///   bench_scenarios --runtime           also gate on runtime ratios
///
/// Also re-runs one representative cell per design at 1/2/4 workers and
/// requires the implemented netlists to be byte-identical (the flow's
/// determinism contract, docs/FLOW.md). Exit status is nonzero on any
/// regression, so the smoke run doubles as a ctest gate. Baseline update
/// workflow: docs/IO.md.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "janus/netlist/io.hpp"
#include "janus/scenario/scenario.hpp"

using namespace janus;
using scenario::ScenarioCell;
using scenario::ScenarioResult;

namespace {

const std::vector<std::string> kDesigns = {
    "c17.bench", "cla16.bench", "mul8.bench", "alu8.bench",
    "counter8.blif", "par32.aag", "mul6.aig",
};

std::vector<ScenarioCell> smoke_cells() {
    // A strict subset of the full matrix (so the pinned baselines cover
    // it): every design once at the default-ish corner plus two cells
    // exercising the slow corner / tight-layer axis.
    std::vector<ScenarioCell> cells;
    for (const std::string& d : kDesigns) {
        cells.push_back({d, "tt_nom", 0.70, 6});
    }
    cells.push_back({"c17.bench", "ss_lowv_hot", 0.55, 5});
    cells.push_back({"counter8.blif", "ss_lowv_hot", 0.55, 5});
    return cells;
}

/// One cell per design for the worker-count byte-identity sweep.
std::vector<ScenarioCell> identity_cells() {
    std::vector<ScenarioCell> cells;
    for (const std::string& d : kDesigns) {
        cells.push_back({d, "tt_nom", 0.70, 6});
    }
    return cells;
}

/// QoR fingerprint for the worker-invariance check: everything except
/// runtime, which is the one field allowed to vary between runs.
std::string qor_fingerprint(const ScenarioResult& r) {
    ScenarioResult copy = r;
    copy.flow.runtime_ms = 0;
    return scenario::result_json(copy).dump();
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false, update = false, runtime_gate = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke")) smoke = true;
        else if (!std::strcmp(argv[i], "--update-baselines")) update = true;
        else if (!std::strcmp(argv[i], "--runtime")) runtime_gate = true;
        else {
            std::fprintf(stderr, "unknown flag %s\n", argv[i]);
            return 2;
        }
    }
    if (update) smoke = false;  // baselines always pin the full matrix

    bench::banner("bench_scenarios", "JanusEDA",
                  "real-circuit ingestion x flow scenario matrix vs pinned QoR");

    const std::string root = scenario::find_repo_root();
    if (root.empty()) {
        std::fprintf(stderr, "cannot locate repo root (ROADMAP.md)\n");
        return 2;
    }
    const std::string corpus = root + "/tests/corpus";
    const std::string baseline_path = corpus + "/scenario_baselines.json";

    scenario::ScenarioMatrix matrix;
    matrix.designs = kDesigns;
    matrix.corners = {"tt_nom", "ss_lowv_hot"};
    matrix.utilizations = {0.55, 0.70};
    matrix.layer_budgets = {5, 6};

    const std::vector<ScenarioCell> cells =
        smoke ? smoke_cells() : matrix.expand();
    const auto lib = bench::make_lib();

    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<ScenarioResult> results =
        scenario::run_scenarios(cells, corpus, lib, /*workers=*/4);
    const double sweep_ms = bench::ms_since(t0);

    std::printf("%-34s %9s %8s %9s %10s %9s\n", "scenario", "insts", "wl",
                "wns_ps", "corner_wns", "time_ms");
    for (const ScenarioResult& r : results) {
        if (r.failed()) {
            std::printf("%-34s FAILED: %s\n", r.cell.key().c_str(),
                        r.error.c_str());
            continue;
        }
        std::printf("%-34s %9zu %8zu %9.1f %10.1f %9.1f\n",
                    r.cell.key().c_str(), r.flow.instances,
                    r.flow.route_wirelength, r.flow.wns_ps, r.corner_wns_ps,
                    r.flow.runtime_ms);
    }

    if (update) {
        scenario::save_baseline(baseline_path, results);
        std::printf("\npinned %zu scenario baselines -> %s\n", results.size(),
                    baseline_path.c_str());
    }

    // ---- regression diff against the pinned baselines.
    std::vector<std::string> regressions;
    if (!update) {
        scenario::Tolerances tol;
        tol.check_runtime = runtime_gate;
        const auto baseline = scenario::load_baseline(baseline_path);
        regressions = scenario::diff_against_baseline(results, baseline, tol);
        for (const std::string& r : regressions) {
            std::printf("REGRESSION %s\n", r.c_str());
        }
    }

    // ---- worker-count byte-identity on every parsed design.
    std::size_t identity_fail = 0;
    {
        const std::vector<ScenarioCell> id_cells = identity_cells();
        std::vector<std::vector<ScenarioResult>> by_workers;
        for (const int w : {1, 2, 4}) {
            by_workers.push_back(
                scenario::run_scenarios(id_cells, corpus, lib, w));
        }
        for (std::size_t i = 0; i < id_cells.size(); ++i) {
            bool ok = true;
            for (std::size_t w = 1; w < by_workers.size(); ++w) {
                const ScenarioResult& a = by_workers[0][i];
                const ScenarioResult& b = by_workers[w][i];
                ok = ok && !a.failed() && !b.failed() && a.flow.mapped &&
                     b.flow.mapped &&
                     netlist_to_string(*a.flow.mapped) ==
                         netlist_to_string(*b.flow.mapped) &&
                     qor_fingerprint(a) == qor_fingerprint(b);
            }
            bench::shape_check(
                ("workers 1/2/4 byte-identical on " + id_cells[i].design).c_str(),
                ok);
            identity_fail += ok ? 0 : 1;
        }
    }

    const bool pass = regressions.empty() && identity_fail == 0;
    bench::shape_check("scenario matrix matches pinned baselines",
                       regressions.empty());

    // ---- machine-readable entry. The smoke run is a ctest gate and must
    // leave the committed BENCH_scenarios.json untouched.
    if (!smoke) {
        server::JsonValue entry = server::JsonValue::object();
        entry.set("mode", update ? "update" : "full");
        entry.set("scenarios", results.size());
        entry.set("designs", kDesigns.size());
        entry.set("regressions", regressions.size());
        entry.set("identity_failures", identity_fail);
        entry.set("sweep_ms", sweep_ms);
        const std::string out =
            bench::write_json_entry("BENCH_scenarios.json", "scenarios", entry);
        std::printf("\nwrote %s\n", out.c_str());
    }
    return pass ? 0 : 1;
}
