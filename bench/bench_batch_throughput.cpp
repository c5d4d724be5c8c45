/// E5 (Rossi): "P&R approaching 1M instances per day" — but farm
/// throughput is a *batch* property: a methodology team runs many
/// independent designs/configs at once. This bench drives the staged
/// FlowEngine's run_batch() over a fleet of E5-style pipelined meshes at
/// 1/2/4/8 workers, reports instances/day per worker count, verifies the
/// parallel results are bit-identical to serial, and dumps the per-stage
/// StageTrace JSON the observability layer records.

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "janus/flow/flow_engine.hpp"
#include "janus/flow/report.hpp"

using namespace janus;

namespace {

bool same_qor(const FlowResult& a, const FlowResult& b) {
    return a.instances == b.instances && a.area_um2 == b.area_um2 &&
           a.hpwl_um == b.hpwl_um &&
           a.route_wirelength == b.route_wirelength &&
           a.route_overflow == b.route_overflow &&
           a.critical_delay_ps == b.critical_delay_ps &&
           a.wns_ps == b.wns_ps && a.total_power_mw == b.total_power_mw &&
           a.clock_skew_ps == b.clock_skew_ps && a.legal == b.legal;
}

}  // namespace

int main() {
    bench::banner("E5 bench_batch_throughput", "Domenico Rossi (ST)",
                  "flow throughput on a farm: batch P&R toward 1M instances/day");
    const auto lib = bench::make_lib();
    const auto node = *find_node("28nm");
    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("hardware_concurrency: %u\n\n", hw);

    // The fleet: independent pipelined-datapath sub-chips (the E5-realistic
    // workload), each its own FlowJob with its own seed.
    constexpr std::size_t kJobs = 8;
    std::vector<FlowJob> jobs;
    std::size_t total_instances = 0;
    for (std::size_t i = 0; i < kJobs; ++i) {
        FlowJob job{generate_mesh(lib, 6000, /*seed=*/i + 1,
                                  /*pipeline_stages=*/4),
                    node, FlowParams{}};
        job.params.seed = i + 1;
        total_instances += job.netlist.num_instances();
        jobs.push_back(std::move(job));
    }

    FlowEngine engine;
    std::vector<FlowResult> serial_results;
    std::vector<StageTrace> serial_traces;
    double serial_s = 0;
    std::vector<FlowResult> four_worker_results;

    std::printf("%8s %10s %12s %14s %9s\n", "workers", "batch_s",
                "inst_total", "inst_per_day", "speedup");
    for (const int workers : {1, 2, 4, 8}) {
        std::vector<StageTrace> traces;
        const auto t0 = std::chrono::steady_clock::now();
        auto results = engine.run_batch(jobs, workers, &traces);
        const double secs = bench::ms_since(t0) / 1000.0;
        const double ipd =
            static_cast<double>(total_instances) / secs * 86400.0;
        if (workers == 1) {
            serial_s = secs;
            serial_results = results;
            serial_traces = std::move(traces);
        }
        if (workers == 4) four_worker_results = results;
        std::printf("%8d %10.2f %12zu %14.3e %8.2fx\n", workers, secs,
                    total_instances, ipd, serial_s / secs);
    }

    // --- observability: aggregate per-stage wall time across the batch.
    std::printf("\nper-stage wall time across the serial batch:\n");
    std::printf("%-14s %10s %10s\n", "stage", "total_ms", "ran/skip");
    std::map<std::string, std::pair<double, int>> by_stage;
    std::map<std::string, int> skips;
    std::vector<std::string> order;
    for (const StageTrace& t : serial_traces) {
        for (const StageTraceEntry& e : t.entries) {
            if (!by_stage.count(e.stage)) order.push_back(e.stage);
            if (e.skipped) {
                ++skips[e.stage];
                by_stage[e.stage];
            } else {
                by_stage[e.stage].first += e.wall_ms;
                ++by_stage[e.stage].second;
            }
        }
    }
    for (const std::string& s : order) {
        std::printf("%-14s %10.1f %6d/%d\n", s.c_str(), by_stage[s].first,
                    by_stage[s].second, skips[s]);
    }

    const std::string json = stage_trace_json(serial_traces.front()).dump();
    std::printf("\nStageTrace JSON (job 0 of %zu; all %zu recorded):\n%s\n",
                kJobs, serial_traces.size(), json.c_str());

    bool identical = serial_results.size() == four_worker_results.size();
    for (std::size_t i = 0; identical && i < serial_results.size(); ++i) {
        identical = same_qor(serial_results[i], four_worker_results[i]);
    }

    std::printf("\npaper claim: ~1e6 instances/day on a multicore farm\n\n");
    bench::shape_check("4-worker batch QoR bit-identical to serial", identical);
    bench::shape_check("StageTrace JSON emitted for every job",
                       !json.empty() && serial_traces.size() == kJobs);
    bench::shape_check("all runs legal", [&] {
        for (const auto& r : serial_results) {
            if (!r.legal) return false;
        }
        return true;
    }());
    const double serial_ipd =
        static_cast<double>(total_instances) / serial_s * 86400.0;
    bench::shape_check("serial throughput already exceeds 1M instances/day",
                       serial_ipd > 1e6);
    if (hw >= 4) {
        // The acceptance bar: batch parallelism buys real farm throughput.
        std::vector<StageTrace> traces;
        const auto t0 = std::chrono::steady_clock::now();
        engine.run_batch(jobs, 4, &traces);
        const double four_s = bench::ms_since(t0) / 1000.0;
        bench::shape_check("4 workers achieve >= 2.5x serial instances/day",
                           serial_s / four_s >= 2.5);
    } else {
        std::printf(
            "NOTE: only %u hardware thread(s) visible — the >= 2.5x @ 4 "
            "workers check needs >= 4 cores and is skipped here (bit-identity "
            "above is the correctness half of the claim).\n",
            hw);
    }
    return 0;
}
