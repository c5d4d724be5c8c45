/// eco_mixed: interactive what-if traffic against a warm flow-server
/// session, with batch flows competing for the same scheduler pool.
///
/// A FlowServer (pool of 2) holds a placed 60k-gate session. Two
/// connections send an open-loop stream at a fixed total rate that
/// alternates a `timing` query with a 16-edit resize `eco` (reads beside
/// writes). Each connection cycles through four sets of 16 cells of its
/// own, resizing a set up and then back down, so one unlucky pick of cells
/// with large fanout cones does not set the latency of the whole run. A
/// third connection pushes small flows to `legalize` in a closed loop. The
/// benchmark talks to the server only over loopback, as a client would.

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench.hpp"
#include "janus/flow/flow_engine.hpp"
#include "janus/netlist/generator.hpp"
#include "janus/netlist/io.hpp"
#include "janus/server/flow_server.hpp"
#include "janus/util/rng.hpp"

namespace janus::e2e {
namespace {

using server::JanusClient;
using server::JsonValue;

constexpr int kPlacerIterations = 50;
constexpr int kConnections = 2;
constexpr std::size_t kEditsPerEco = 16;
constexpr std::size_t kSetsPerConnection = 4;
const char* const kSession = "warm";

/// The 16 cells one ECO resizes: their original cells and a larger drive.
struct EditSet {
    std::vector<std::string> instances, down, up;
};

/// Picks `n` combinational instances, unused by earlier sets, that have a
/// larger drive variant.
EditSet pick_edits(const Netlist& nl, Rng& rng, std::size_t n,
                   std::unordered_set<InstId>& used) {
    const CellLibrary& lib = nl.library();
    EditSet set;
    while (set.instances.size() < n) {
        const auto i = static_cast<InstId>(rng.next_below(nl.num_instances()));
        const CellType& cell = nl.type_of(i);
        if (is_sequential(cell.function) || used.count(i)) continue;
        for (const std::size_t v : lib.variants(cell.function)) {
            if (lib.cell(v).drive <= cell.drive) continue;
            used.insert(i);
            set.instances.emplace_back(nl.instance_name(i));
            set.down.push_back(cell.name);
            set.up.push_back(lib.cell(v).name);
            break;
        }
    }
    return set;
}

JsonValue edits_json(const EditSet& set, bool up) {
    JsonValue edits = JsonValue::array();
    for (std::size_t e = 0; e < set.instances.size(); ++e) {
        JsonValue edit = JsonValue::object();
        edit.set("kind", "resize");
        edit.set("instance", set.instances[e]);
        edit.set("cell", up ? set.up[e] : set.down[e]);
        edits.push(std::move(edit));
    }
    return edits;
}

std::vector<server::EcoEdit> session_edits(const EditSet& set, bool up) {
    std::vector<server::EcoEdit> edits;
    for (std::size_t e = 0; e < set.instances.size(); ++e) {
        edits.push_back({server::EcoEdit::Kind::Resize, set.instances[e],
                         up ? set.up[e] : set.down[e], -1, ""});
    }
    return edits;
}

std::string eco_line(const JsonValue& edits) {
    JsonValue req = JsonValue::object();
    req.set("cmd", "eco");
    req.set("session", kSession);
    req.set("edits", edits);
    return req.dump();
}

JsonValue session_params(std::uint64_t seed) {
    JsonValue params = JsonValue::object();
    params.set("placer_iterations", kPlacerIterations);
    params.set("seed", static_cast<std::int64_t>(seed));
    return params;
}

std::string submit_line(const std::string& session, const std::string& text,
                        std::uint64_t seed) {
    JsonValue req = JsonValue::object();
    req.set("cmd", "submit_design");
    req.set("session", session);
    req.set("netlist", text);
    req.set("params", session_params(seed));
    return req.dump();
}

std::string run_to_line(const std::string& session, const std::string& stage) {
    JsonValue req = JsonValue::object();
    req.set("cmd", "run_to");
    req.set("session", session);
    req.set("stage", stage);
    return req.dump();
}

const std::string kTimingLine = std::string("{\"cmd\":\"timing\",\"session\":\"") +
                                kSession + "\"}";

/// Sends one request as an operation of the report; returns the parsed
/// reply (null when the reply is not "ok").
JsonValue call(JanusClient& client, const std::string& line, Report& report,
               const char* what) {
    report.begin_op();
    JsonValue reply;
    try {
        reply = server::parse_json(client.request(line));
    } catch (const std::exception& e) {
        report.end_op(false, std::string(what) + ": " + e.what());
        return JsonValue();
    }
    const bool ok = reply.get_string("status") == "ok";
    report.end_op(ok, std::string(what) + ": " + reply.get_string("error"));
    return ok ? reply : JsonValue();
}

/// Per-connection results of one open-loop phase.
struct StreamStats {
    std::vector<double> latency_ms;  ///< from each request's due time
    double late_ms = 0;              ///< summed send delay behind schedule
    double eco_wire_ms = 0;
    double evals = 0, full_evals = 0;
    std::size_t ecos = 0, incremental = 0;
};

}  // namespace

void run_eco_mixed(const RunOptions& opts, Report& report, Tracer& tracer) {
    const auto lib = make_lib();
    const TechnologyNode node = *find_node("28nm");
    const std::size_t gates = opts.smoke ? 8000 : 60000;
    const double rate = opts.smoke ? 200.0 : 400.0;  // requests/s, all connections
    const std::uint64_t flow_seed = mix_seed(opts.seed, 1000) & 0x7fffffff;
    const std::string text =
        netlist_to_string(generate_mesh(lib, gates, mix_seed(opts.seed, 0), 8));
    std::vector<std::string> batch_texts;
    std::vector<double> batch_instances;
    for (std::uint64_t i = 0; i < 4; ++i) {
        const Netlist small = generate_mesh(lib, 400, mix_seed(opts.seed, 10 + i), 1);
        batch_texts.push_back(netlist_to_string(small));
        batch_instances.push_back(static_cast<double>(small.num_instances()));
    }

    server::FlowServerOptions so;
    so.workers = 2;
    server::FlowServer srv(node, so);
    srv.start();
    JanusClient control(srv.port());

    // Set-up: warm the session (parse, place through legalize, first timing
    // builds the graph), repeatedly; the last one stays live.
    std::vector<double> setup_times;
    JsonValue placed, pre;
    const auto setup_start = Clock::now();
    while (!setup_done(setup_times.size(), seconds_since(setup_start))) {
        const auto t0 = Clock::now();
        Tracer::Scope span(tracer, "server.setup", -1);
        call(control, submit_line(kSession, text, flow_seed), report, "submit_design");
        placed = call(control, run_to_line(kSession, "legalize"), report, "run_to");
        pre = call(control, kTimingLine, report, "timing");
        setup_times.push_back(seconds_since(t0));
    }
    report.set("setup_s", median(setup_times));
    if (pre.is_null() || placed.is_null()) throw std::runtime_error("session set-up failed");
    const std::string pre_report = pre.get_string("report");
    report.set("qor_area_um2", placed.get_real("area_um2"));
    report.set("qor_crit_ps", pre.get_real("critical_delay_ps"));

    const Netlist design = netlist_from_string(text, lib);
    Rng rng(mix_seed(opts.seed, 3000));
    std::unordered_set<InstId> used;
    // sets[c][j]: set j of connection c, with its up and down requests.
    std::vector<std::vector<EditSet>> sets(kConnections);
    std::vector<std::vector<std::string>> up_lines(kConnections), down_lines(kConnections);
    EditSet all;
    for (int c = 0; c < kConnections; ++c) {
        for (std::size_t j = 0; j < kSetsPerConnection; ++j) {
            const EditSet s = pick_edits(design, rng, kEditsPerEco, used);
            up_lines[c].push_back(eco_line(edits_json(s, true)));
            down_lines[c].push_back(eco_line(edits_json(s, false)));
            all.instances.insert(all.instances.end(), s.instances.begin(), s.instances.end());
            all.down.insert(all.down.end(), s.down.begin(), s.down.end());
            all.up.insert(all.up.end(), s.up.begin(), s.up.end());
            sets[c].push_back(s);
        }
    }
    const std::string restore_line = eco_line(edits_json(all, false));

    std::vector<StreamStats> streams;
    double preempts = 0;
    const auto phase = [&](double seconds, bool traced) {
        const auto period = std::chrono::duration<double>(kConnections / rate);
        const auto start = Clock::now() + std::chrono::milliseconds(20);
        const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds));
        const double preempts0 =
            static_cast<double>(srv.scheduler_stats().eco_preempts);
        std::vector<StreamStats> stream(kConnections);
        std::atomic<bool> stop{false};
        double batch_inst = 0;
        Clock::time_point batch_last = start;

        std::thread batch([&] {
            JanusClient c(srv.port());
            for (std::size_t i = 0; !stop.load(); ++i) {
                const std::size_t k = i % batch_texts.size();
                Tracer::Scope span(tracer, "server.batch_flow", static_cast<int>(i));
                const bool ok =
                    !call(c, submit_line("batch", batch_texts[k], flow_seed), report,
                          "batch submit_design").is_null() &&
                    !call(c, run_to_line("batch", "legalize"), report, "batch run_to")
                         .is_null();
                if (ok && Clock::now() <= end) {
                    batch_inst += batch_instances[k];
                    batch_last = Clock::now();
                }
            }
        });
        std::vector<std::thread> interactive;
        for (int ci = 0; ci < kConnections; ++ci) {
            interactive.emplace_back([&, ci] {
                JanusClient c(srv.port());
                StreamStats& st = stream[static_cast<std::size_t>(ci)];
                for (int r = 0;; ++r) {
                    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                                 period * (r + ci / double(kConnections)));
                    if (due >= end) break;
                    std::this_thread::sleep_until(due);
                    const auto sent = Clock::now();
                    st.late_ms += std::chrono::duration<double, std::milli>(sent - due).count();
                    // Odd requests are ECOs: set j up, then set j down.
                    const bool eco = r % 2 == 1;
                    const std::size_t e = static_cast<std::size_t>(r / 2);
                    const std::size_t j = (e / 2) % kSetsPerConnection;
                    const std::string& line =
                        !eco ? kTimingLine : e % 2 == 0 ? up_lines[ci][j] : down_lines[ci][j];
                    JsonValue reply;
                    {
                        Tracer::Scope span(tracer, eco ? "server.eco_wire" : "server.timing_wire", r);
                        reply = call(c, line, report, eco ? "eco" : "timing");
                    }
                    const auto done = Clock::now();
                    st.latency_ms.push_back(
                        std::chrono::duration<double, std::milli>(done - due).count());
                    if (eco && !reply.is_null()) {
                        ++st.ecos;
                        st.eco_wire_ms +=
                            std::chrono::duration<double, std::milli>(done - sent).count();
                        st.evals += static_cast<double>(reply.get_int("evals"));
                        st.full_evals += static_cast<double>(reply.get_int("full_evals"));
                        st.incremental += reply.at("incremental").as_bool() ? 1 : 0;
                    }
                }
            });
        }
        for (std::thread& t : interactive) t.join();
        stop.store(true);
        batch.join();

        // Undo every edit still applied; the timing report must then match
        // the one taken before the traffic, byte for byte.
        call(control, restore_line, report, "restore eco");
        const JsonValue after = call(control, kTimingLine, report, "timing");
        report.check(after.get_string("report") == pre_report,
                     "timing report after the final restore differs from the "
                     "pre-run report");

        PhaseStats stats;
        for (const StreamStats& st : stream) {
            stats.latency_ms.insert(stats.latency_ms.end(), st.latency_ms.begin(),
                                    st.latency_ms.end());
        }
        stats.busy_s = std::chrono::duration<double>(batch_last - start).count();
        stats.instances = batch_inst;
        if (traced) {
            streams = stream;
            preempts = static_cast<double>(srv.scheduler_stats().eco_preempts) - preempts0;
        }
        double late = 0;
        for (const StreamStats& st : stream) late += st.late_ms;
        report.set("loadgen.late_ms",
                   stats.latency_ms.empty() ? 0.0 : late / stats.latency_ms.size());
        return stats;
    };
    measure(opts, report, phase);
    srv.stop();

    if (!opts.trace) return;
    // In-process reference: the same session driven through Session's API
    // without the server, so wire and queueing time can be separated out.
    FlowParams params;
    params.placer_iterations = kPlacerIterations;
    params.seed = flow_seed;
    server::Session session("probe", netlist_from_string(text, lib), node, params);
    session.run_to(FlowEngine(), "legalize");
    session.timing();
    const int probes = opts.smoke ? 20 : 200;
    for (int i = 0; i < probes; ++i) {
        {
            Tracer::Scope span(tracer, "server.session_timing", i);
            session.timing();
        }
        Tracer::Scope span(tracer, "server.session_eco", i);
        session.apply_eco(session_edits(sets[0][(i / 2) % kSetsPerConnection], i % 2 == 0));
    }
    const double eco_ms = tracer.total_s("server.session_eco") * 1000.0 / probes;
    report.set("server.session_eco_ms", eco_ms);
    report.set("server.session_timing_ms",
               tracer.total_s("server.session_timing") * 1000.0 / probes);

    StreamStats sum;
    for (const StreamStats& st : streams) {
        sum.eco_wire_ms += st.eco_wire_ms;
        sum.evals += st.evals;
        sum.full_evals += st.full_evals;
        sum.ecos += st.ecos;
        sum.incremental += st.incremental;
    }
    const double ecos = static_cast<double>(sum.ecos);
    const double wire_ms = ecos > 0 ? sum.eco_wire_ms / ecos : 0.0;
    report.set("server.eco_wire_ms", wire_ms);
    report.set("server.wait_ms", wire_ms - eco_ms);
    report.set("timing.eco_eval_ratio", sum.full_evals > 0 ? sum.evals / sum.full_evals : 0.0);
    report.set("timing.incremental_frac", ecos > 0 ? sum.incremental / ecos : 0.0);
    report.set("server.eco_preempts", preempts);
}

}  // namespace janus::e2e
