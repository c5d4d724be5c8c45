/// Flow-server bench: the session-cached ECO service under load.
///
/// Part 1 — warm-session ECO vs cold full re-run (the PR's acceptance
/// criterion): a >=60k-instance mesh is submitted to a named session, run
/// through placement, and timed; a single critical-path resize ECO is then
/// answered incrementally and byte-compared against a from-scratch flow +
/// full STA of the same edit, with the eval-count ratio reported
/// (target: >=100x fewer timing evaluations on the warm session).
///
/// Part 2 — mixed-load throughput over the loopback socket: interactive
/// clients stream timing/ECO queries against warm sessions while a batch
/// client pushes full flows through the same scheduler pool. Reports
/// sustained interactive req/s, p50/p99 latency, and how often the
/// Eco-priority admission actually jumped the batch queue.
///
/// `--smoke` shrinks the design and request counts to a ~2 s run (the
/// ctest registration) and writes no ledger entry. Either mode exits 1 when
/// a correctness check fails; the two checks that depend on machine load
/// (p99 latency, batch flows completed) are printed without gating.
///
/// Full-run results land in BENCH_server.json via bench::write_json_entry.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "janus/flow/flow_engine.hpp"
#include "janus/netlist/io.hpp"
#include "janus/server/flow_server.hpp"
#include "janus/timing/delay_model.hpp"
#include "janus/timing/timing_graph.hpp"

using namespace janus;
using server::FlowServer;
using server::FlowServerOptions;
using server::JanusClient;
using server::JsonValue;
using server::parse_json;

using bench::ms_since;

namespace {

JsonValue must_ok(const std::string& reply, const char* what) {
    JsonValue v = parse_json(reply);
    if (v.get_string("status") != "ok") {
        std::fprintf(stderr, "%s failed: %s\n", what, reply.c_str());
        std::exit(1);
    }
    return v;
}

struct ColdReference {
    std::string instance;   ///< chosen critical-path resize target
    std::string orig_cell;  ///< the cell it started as
    std::string cell;       ///< its next-larger drive variant
    std::string report;    ///< full-STA report after the edit
    std::size_t instances = 0;
    std::size_t full_evals = 0;
};

/// The reference side: same deterministic flow, same edit, cold full STA.
ColdReference cold_reference(const std::string& text,
                             const TechnologyNode& node, int placer_iters) {
    FlowEngine engine;
    FlowParams params;
    params.placer_iterations = placer_iters;
    FlowContext ctx(netlist_from_string(text, bench::make_lib()), node, params);
    engine.run_to(ctx, "legalize");

    StaOptions sta;
    sta.wire = WireModel::for_node(node);
    ColdReference ref;
    ref.instances = ctx.netlist.num_instances();
    ref.full_evals = 2 * ctx.netlist.topological_order().size();
    {
        TimingGraph probe(ctx.netlist, sta);
        probe.analyze();
        const CellLibrary& lib = ctx.netlist.library();
        // Walk the critical path endpoint-first: resizing near the capture
        // point keeps the dirty cone small, which is both what a real ECO
        // loop does and what makes the incremental path worth having.
        const std::vector<InstId>& path = probe.report().critical_path;
        for (auto it = path.rbegin(); it != path.rend(); ++it) {
            const InstId i = *it;
            const CellType& cur = ctx.netlist.type_of(i);
            for (const std::size_t v : lib.variants(cur.function)) {
                if (lib.cell(v).drive > cur.drive) {
                    ref.instance = std::string(ctx.netlist.instance_name(i));
                    ref.orig_cell = cur.name;
                    ref.cell = lib.cell(v).name;
                    ctx.netlist.instance(i).type = v;
                    break;
                }
            }
            if (!ref.instance.empty()) break;
        }
    }
    TimingGraph cold(ctx.netlist, sta);
    cold.analyze();
    ref.report = format_timing_report(ctx.netlist, cold.report());
    return ref;
}

std::string submit_request(const std::string& session, const std::string& text,
                           int placer_iters) {
    JsonValue req = JsonValue::object();
    req.set("cmd", "submit_design");
    req.set("session", session);
    req.set("netlist", text);
    JsonValue params = JsonValue::object();
    params.set("placer_iterations", placer_iters);
    req.set("params", std::move(params));
    return req.dump();
}

std::string eco_request(const std::string& session, const std::string& inst,
                        const std::string& cell) {
    JsonValue req = JsonValue::object();
    req.set("cmd", "eco");
    req.set("session", session);
    JsonValue edits = JsonValue::array();
    JsonValue edit = JsonValue::object();
    edit.set("kind", "resize");
    edit.set("instance", inst);
    edit.set("cell", cell);
    edits.push(std::move(edit));
    req.set("edits", std::move(edits));
    return req.dump();
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double idx = p * static_cast<double>(v.size() - 1);
    return v[static_cast<std::size_t>(idx + 0.5)];
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    }
    bench::banner("SERVER", "flow server",
                  "a warm session answers a resize ECO byte-identically to a "
                  "cold full re-run with >=100x fewer timing evaluations, "
                  "while Eco-priority admission keeps interactive latency low "
                  "under mixed load");

    const TechnologyNode node = *find_node("28nm");
    const std::size_t gates = smoke ? 2500 : 60000;
    const int placer_iters = smoke ? 30 : 50;
    const std::string text =
        netlist_to_string(generate_mesh(bench::make_lib(), gates, 3, 8));

    // ---------------- part 1: warm ECO vs cold full re-run ----------------
    const auto t_cold = std::chrono::steady_clock::now();
    const ColdReference ref = cold_reference(text, node, placer_iters);
    const double cold_ms = ms_since(t_cold);

    const unsigned hw = std::thread::hardware_concurrency();
    FlowServerOptions opts;
    opts.workers = hw > 1 ? 2 : 1;
    FlowServer server(node, opts);
    must_ok(server.handle_request(submit_request("warm", text, placer_iters)),
            "submit_design");
    const auto t_flow = std::chrono::steady_clock::now();
    must_ok(server.handle_request(
                "{\"cmd\":\"run_to\",\"session\":\"warm\",\"stage\":\"legalize\"}"),
            "run_to");
    const double flow_ms = ms_since(t_flow);
    must_ok(server.handle_request("{\"cmd\":\"timing\",\"session\":\"warm\"}"),
            "timing");  // warms the graph

    const auto t_eco = std::chrono::steady_clock::now();
    const JsonValue eco = must_ok(
        server.handle_request(eco_request("warm", ref.instance, ref.cell)),
        "eco");
    const double eco_ms = ms_since(t_eco);

    const std::size_t evals = static_cast<std::size_t>(eco.get_int("evals"));
    const std::size_t full_evals =
        static_cast<std::size_t>(eco.get_int("full_evals"));
    const double ratio =
        evals ? static_cast<double>(full_evals) / static_cast<double>(evals)
              : 0.0;
    const bool identical = eco.get_string("report") == ref.report;

    std::printf("\ndesign: mesh, %zu instances (%zu gates requested)\n",
                ref.instances, gates);
    std::printf("flow to legalize: %.0f ms (server) vs %.0f ms (cold side incl."
                " 2 full STAs)\n", flow_ms, cold_ms);
    std::printf("ECO resize %s -> %s: %.2f ms, %zu evals vs %zu full "
                "(%.0fx fewer), incremental=%s\n",
                ref.instance.c_str(), ref.cell.c_str(), eco_ms, evals,
                full_evals, ratio,
                eco.at("incremental").as_bool() ? "yes" : "no");
    bool ok = bench::shape_check("ECO report byte-identical to cold full re-run",
                                 identical);
    ok &= bench::shape_check("ECO answered on the warm incremental path",
                             eco.at("incremental").as_bool());
    ok &= bench::shape_check(
        smoke ? "ECO >=10x fewer timing evals (smoke design)"
              : "ECO >=100x fewer timing evals on warm >=60k session",
        ratio >= (smoke ? 10.0 : 100.0));
    if (!smoke) {
        ok &= bench::shape_check("warm session holds >=60k instances",
                                 ref.instances >= 60000);
    }

    // ------------- part 2: mixed-load throughput over loopback -------------
    server.start();
    const int interactive_clients = 2;
    const int reqs_per_client = smoke ? 20 : 200;
    const std::string small =
        netlist_to_string(generate_mesh(bench::make_lib(), 400, 9, 1));

    std::vector<std::vector<double>> latencies(interactive_clients);
    std::vector<std::thread> clients;
    std::atomic<bool> batch_stop{false};
    std::atomic<std::size_t> batch_flows{0};

    std::thread batch([&] {
        JanusClient c(server.port());
        int i = 0;
        while (!batch_stop.load()) {
            const std::string name = "batch" + std::to_string(i++ % 4);
            must_ok(c.request(submit_request(name, small, 20)), "batch submit");
            must_ok(c.request("{\"cmd\":\"run_to\",\"session\":\"" + name +
                              "\",\"stage\":\"legalize\"}"),
                    "batch run_to");
            batch_flows.fetch_add(1);
        }
    });

    const auto t_mix = std::chrono::steady_clock::now();
    for (int ci = 0; ci < interactive_clients; ++ci) {
        clients.emplace_back([&, ci] {
            JanusClient c(server.port());
            for (int r = 0; r < reqs_per_client; ++r) {
                const auto t0 = std::chrono::steady_clock::now();
                if (r % 2 == 0) {
                    must_ok(c.request(
                                "{\"cmd\":\"timing\",\"session\":\"warm\"}"),
                            "timing");
                } else {
                    // Alternate the resize back and forth: every request is
                    // a real warm-path incremental update.
                    const std::string& cell =
                        (r % 4 == 1) ? ref.orig_cell : ref.cell;
                    must_ok(c.request(eco_request("warm", ref.instance, cell)),
                            "eco");
                }
                latencies[ci].push_back(ms_since(t0));
            }
        });
    }
    for (std::thread& t : clients) t.join();
    const double mix_ms = ms_since(t_mix);
    batch_stop.store(true);
    batch.join();

    std::vector<double> all;
    for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
    const double reqs = static_cast<double>(all.size());
    const double req_per_s = reqs / (mix_ms / 1000.0);
    const double p50 = percentile(all, 0.50);
    const double p99 = percentile(all, 0.99);

    const JsonValue stats = must_ok(
        server.handle_request("{\"cmd\":\"stats\"}"), "stats");
    server.stop();

    std::printf("\nmixed load: %zu interactive reqs + %zu full flows in %.0f "
                "ms\n", all.size(), batch_flows.load(), mix_ms);
    std::printf("interactive: %.0f req/s, p50 %.2f ms, p99 %.2f ms\n",
                req_per_s, p50, p99);
    std::printf("scheduler: %lld jobs, %lld eco, %lld preempts\n",
                static_cast<long long>(stats.get_int("submitted")),
                static_cast<long long>(stats.get_int("eco_submitted")),
                static_cast<long long>(stats.get_int("eco_preempts")));
    ok &= bench::shape_check("all interactive requests answered", reqs > 0);
    bench::shape_check("p99 interactive latency under 1 s", p99 < 1000.0);
    bench::shape_check("batch flows completed during interactive load",
                       batch_flows.load() > 0);

    // The smoke run is a ctest gate and leaves no ledger behind.
    if (!smoke) {
        JsonValue entry = JsonValue::object();
        entry.set("instances", ref.instances);
        entry.set("flow_ms", flow_ms);
        entry.set("eco_ms", eco_ms);
        entry.set("eco_evals", evals);
        entry.set("full_evals", full_evals);
        entry.set("eval_ratio", ratio);
        entry.set("byte_identical", identical);
        entry.set("interactive_reqs", all.size());
        entry.set("req_per_s", req_per_s);
        entry.set("p50_ms", p50);
        entry.set("p99_ms", p99);
        entry.set("batch_flows", batch_flows.load());
        entry.set("eco_preempts", stats.get_int("eco_preempts"));
        entry.set("workers", opts.workers);
        const std::string path =
            bench::write_json_entry("BENCH_server.json", "server", entry);
        std::printf("\nwrote %s entry server\n", path.c_str());
    }
    return ok ? 0 : 1;
}
