// Tests for the JanusEDA flow server stack: the line-delimited JSON
// protocol, the FlowScheduler priority/exception contract (and the
// run_batch wrapper built on it), session lifecycle with LRU eviction,
// ECO-vs-cold-rerun byte-identity of timing reports, and the loopback
// socket transport with concurrent mixed clients. Builds as its own binary
// (`ctest -R Server`); configure with -DJANUS_TSAN=ON to race-check the
// scheduler queues, the session registry, and the connection threads.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "janus/flow/flow_engine.hpp"
#include "janus/flow/report.hpp"
#include "janus/netlist/generator.hpp"
#include "janus/netlist/io.hpp"
#include "janus/place/analytic_place.hpp"
#include "janus/place/net_bbox.hpp"
#include "janus/server/flow_server.hpp"
#include "janus/server/protocol.hpp"
#include "janus/server/scheduler.hpp"
#include "janus/server/session.hpp"
#include "janus/timing/delay_model.hpp"
#include "janus/timing/timing_graph.hpp"

namespace janus {
namespace {

using server::FlowServer;
using server::FlowServerOptions;
using server::JanusClient;
using server::JsonValue;
using server::ProtocolError;
using server::parse_json;

std::shared_ptr<const CellLibrary> lib28() {
    static const auto lib = std::make_shared<const CellLibrary>(
        make_default_library(*find_node("28nm")));
    return lib;
}

// ------------------------------------------------------------- protocol

TEST(Protocol, RoundTripsValuesDeterministically) {
    const std::string text =
        "{\"a\":1,\"b\":-2.5,\"c\":\"x\\ny\",\"d\":[true,false,null],"
        "\"e\":{\"nested\":42}}";
    const JsonValue v = parse_json(text);
    EXPECT_EQ(v.get_int("a"), 1);
    EXPECT_EQ(v.get_real("b"), -2.5);
    EXPECT_EQ(v.get_string("c"), "x\ny");
    EXPECT_EQ(v.at("d").items().size(), 3u);
    EXPECT_EQ(v.at("e").get_int("nested"), 42);
    // dump() is canonical: parsing its own output reproduces it exactly.
    EXPECT_EQ(parse_json(v.dump()).dump(), v.dump());
}

TEST(Protocol, IntegersSurviveExactly) {
    const JsonValue v = parse_json("{\"big\":123456789012345}");
    EXPECT_EQ(v.get_int("big"), 123456789012345LL);
    EXPECT_NE(v.dump().find("123456789012345"), std::string::npos);
}

TEST(Protocol, RejectsMalformedInput) {
    EXPECT_THROW(parse_json(""), ProtocolError);
    EXPECT_THROW(parse_json("{"), ProtocolError);
    EXPECT_THROW(parse_json("{\"a\":1,}"), ProtocolError);
    EXPECT_THROW(parse_json("{\"a\":1} trailing"), ProtocolError);
    EXPECT_THROW(parse_json("{\"a\":01e}"), ProtocolError);
    EXPECT_THROW(parse_json("\"unterminated"), ProtocolError);
    EXPECT_THROW(parse_json("{\"dup\":1,\"dup\":2}"), ProtocolError);
    // Hostile nesting depth must not blow the stack.
    std::string deep(200, '[');
    deep += std::string(200, ']');
    EXPECT_THROW(parse_json(deep), ProtocolError);
}

TEST(Protocol, SetReplacesExistingMemberInPlace) {
    JsonValue o = JsonValue::object();
    o.set("a", 1);
    o.set("b", "x");
    o.set("a", 2);
    // dump() must stay parseable (the parser rejects duplicate members),
    // and the replaced member keeps its original position.
    EXPECT_EQ(o.dump(), "{\"a\":2,\"b\":\"x\"}");
    const JsonValue back = parse_json(o.dump());
    EXPECT_EQ(back.get_int("a"), 2);
    EXPECT_EQ(back.dump(), o.dump());
}

TEST(Protocol, DumpLinesRendersOneMemberPerLine) {
    JsonValue o = JsonValue::object();
    o.set("k1", JsonValue::object().set("n", 1));
    o.set("k2", 2.5);
    EXPECT_EQ(o.dump_lines(), "{\n\"k1\": {\"n\":1},\n\"k2\": 2.5\n}\n");
    EXPECT_EQ(parse_json(o.dump_lines()).dump(), o.dump());
    EXPECT_EQ(JsonValue::object().dump_lines(), "{\n}\n");
    EXPECT_THROW(JsonValue::array().dump_lines(), ProtocolError);
}

TEST(Protocol, TypedAccessorsEnforceKinds) {
    const JsonValue v = parse_json("{\"n\":3,\"s\":\"x\"}");
    EXPECT_THROW(v.at("s").as_int(), ProtocolError);
    EXPECT_THROW(v.at("n").as_string(), ProtocolError);
    EXPECT_EQ(v.at("n").as_real(), 3.0);  // int coerces up to real
    EXPECT_THROW(v.at("missing"), ProtocolError);
}

// ------------------------------------------------------------ scheduler

TEST(Scheduler, EcoJobsJumpAheadOfQueuedBatchWork) {
    FlowEngine engine;
    FlowScheduler sched(engine, 1);  // one worker serializes execution

    std::mutex mu;
    std::condition_variable cv;
    bool started = false;
    bool release = false;
    std::vector<std::string> order;
    const auto record = [&](const char* tag) {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(tag);
    };

    // Occupy the single worker until every other job is queued.
    sched.submit_fn(
        [&] {
            std::unique_lock<std::mutex> lock(mu);
            order.push_back("blocker");
            started = true;
            cv.notify_all();
            cv.wait(lock, [&] { return release; });
        },
        JobPriority::Batch);
    {
        // Only admit the rest once the blocker owns the worker — otherwise
        // the first free pump could legitimately pick the ECO first.
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return started; });
    }
    sched.submit_fn([&] { record("batch1"); }, JobPriority::Batch);
    sched.submit_fn([&] { record("batch2"); }, JobPriority::Batch);
    sched.submit_fn([&] { record("eco"); }, JobPriority::Eco);
    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
    sched.wait_all();

    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], "blocker");
    EXPECT_EQ(order[1], "eco");  // admitted last, ran first
    EXPECT_EQ(order[2], "batch1");
    EXPECT_EQ(order[3], "batch2");

    const SchedulerStats stats = sched.stats();
    EXPECT_EQ(stats.submitted, 4u);
    EXPECT_EQ(stats.completed, 4u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.eco_submitted, 1u);
    EXPECT_GE(stats.eco_preempts, 1u);
}

TEST(Scheduler, ThrowingWorkFailsItsHandleOnly) {
    FlowEngine engine;
    FlowScheduler sched(engine, 2);
    JobHandle bad = sched.submit_fn([] { throw std::runtime_error("kaboom"); },
                                    JobPriority::Batch);
    JobHandle good =
        sched.submit_fn([] { /* fine */ }, JobPriority::Batch);
    EXPECT_TRUE(bad.wait().failed());
    EXPECT_NE(bad.wait().error.find("kaboom"), std::string::npos);
    EXPECT_FALSE(good.wait().failed());
    const SchedulerStats stats = sched.stats();
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.failed, 1u);
}

TEST(Scheduler, InvalidJobParamsFailTheHandleNotTheScheduler) {
    FlowEngine engine;
    FlowScheduler sched(engine, 2);
    GeneratorConfig cfg;
    cfg.num_gates = 120;
    FlowJob bad_job{generate_random(lib28(), cfg), *find_node("28nm"), {}};
    bad_job.params.utilization = 7.0;  // FlowContext ctor throws on this
    FlowJob good_job{generate_random(lib28(), cfg), *find_node("28nm"), {}};
    JobHandle bad = sched.submit(std::move(bad_job));
    JobHandle good = sched.submit(std::move(good_job));
    EXPECT_TRUE(bad.wait().failed());
    EXPECT_NE(bad.wait().error.find("utilization"), std::string::npos);
    const FlowResult& ok = good.wait();
    EXPECT_FALSE(ok.failed());
    EXPECT_GT(ok.instances, 0u);
    EXPECT_NE(good.trace().entries.size(), 0u);
}

// Satellite bugfix regression: a stage that throws mid-batch must surface
// as a failed FlowResult for that job only — siblings complete with the
// same QoR they produce in a clean engine, and the pool drains.
TEST(Scheduler, RunBatchSurvivesThrowingStage) {
    const auto make_jobs = [] {
        std::vector<FlowJob> jobs;
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            GeneratorConfig cfg;
            cfg.num_gates = 150;
            cfg.seed = seed;
            jobs.push_back({generate_random(lib28(), cfg), *find_node("28nm"),
                            FlowParams{}});
        }
        return jobs;
    };

    FlowEngine faulty;
    faulty.insert_stage(faulty.stage_index("place"),
                        {"boom",
                         [](FlowContext& ctx) {
                             if (ctx.result.design == "rand_2") {
                                 throw std::runtime_error("injected fault");
                             }
                         },
                         nullptr});
    const std::vector<FlowResult> results = faulty.run_batch(make_jobs(), 2);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].failed());
    ASSERT_TRUE(results[1].failed());
    EXPECT_NE(results[1].error.find("injected fault"), std::string::npos);
    EXPECT_FALSE(results[2].failed());

    // Siblings match a clean engine bit for bit.
    FlowEngine clean;
    const std::vector<FlowResult> expected = clean.run_batch(make_jobs(), 2);
    EXPECT_EQ(results[0].critical_delay_ps, expected[0].critical_delay_ps);
    EXPECT_EQ(results[0].hpwl_um, expected[0].hpwl_um);
    EXPECT_EQ(results[2].critical_delay_ps, expected[2].critical_delay_ps);
    EXPECT_EQ(results[2].hpwl_um, expected[2].hpwl_um);

    // The pool is not poisoned: the same engine accepts more work.
    const std::vector<FlowResult> again = faulty.run_batch(make_jobs(), 2);
    EXPECT_FALSE(again[0].failed());
    EXPECT_TRUE(again[1].failed());
}

// --------------------------------------------------- in-process protocol

FlowServerOptions small_server_opts(int workers = 2,
                                    std::size_t max_sessions = 8) {
    FlowServerOptions opts;
    opts.workers = workers;
    opts.max_sessions = max_sessions;
    return opts;
}

std::string mesh_text(std::size_t gates, std::uint64_t seed,
                      int pipeline_stages) {
    return netlist_to_string(
        generate_mesh(lib28(), gates, seed, pipeline_stages));
}

JsonValue request_ok(FlowServer& server, const std::string& line) {
    const JsonValue resp = parse_json(server.handle_request(line));
    EXPECT_EQ(resp.get_string("status"), "ok") << resp.dump();
    return resp;
}

TEST(FlowServerTest, PingAndMalformedRequestRejection) {
    FlowServer server(*find_node("28nm"), small_server_opts());
    EXPECT_EQ(request_ok(server, "{\"cmd\":\"ping\"}").get_string("reply"),
              "pong");

    const auto expect_error = [&](const std::string& line) {
        const JsonValue resp = parse_json(server.handle_request(line));
        EXPECT_EQ(resp.get_string("status"), "error") << line;
        EXPECT_FALSE(resp.get_string("error").empty()) << line;
    };
    expect_error("this is not json");
    expect_error("{\"cmd\":\"ping\"} trailing");
    expect_error("{\"no_cmd\":1}");
    expect_error("{\"cmd\":\"warp_drive\"}");
    expect_error("{\"cmd\":\"run_to\",\"session\":\"ghost\",\"stage\":\"sta\"}");
    expect_error("{\"cmd\":\"submit_design\",\"session\":\"s\","
                 "\"netlist\":\"design broken\\nbogus line\"}");
    expect_error("{\"cmd\":\"eco\",\"session\":\"ghost\",\"edits\":[]}");
    // Unknown params keys are rejected, not silently ignored.
    JsonValue req = JsonValue::object();
    req.set("cmd", "submit_design");
    req.set("session", "s");
    req.set("netlist", mesh_text(100, 3, 0));
    JsonValue params = JsonValue::object();
    params.set("worker_count", 4);  // typo for "workers"
    req.set("params", std::move(params));
    expect_error(req.dump());
    // The server is still alive after every rejection.
    EXPECT_EQ(request_ok(server, "{\"cmd\":\"ping\"}").get_string("reply"),
              "pong");
}

// The top-level "workers" key is the only wire spelling of the thread
// count; the old per-stage "parallel" object is an unknown key.
TEST(FlowServerTest, ParallelParamsObjectIsAnUnknownKey) {
    FlowServer server(*find_node("28nm"), small_server_opts());
    JsonValue req = JsonValue::object();
    req.set("cmd", "submit_design");
    req.set("session", "s");
    req.set("netlist", mesh_text(100, 3, 0));
    JsonValue parallel = JsonValue::object();
    parallel.set("workers", 2);
    JsonValue params = JsonValue::object();
    params.set("parallel", std::move(parallel));
    req.set("params", std::move(params));
    const JsonValue resp = parse_json(server.handle_request(req.dump()));
    EXPECT_EQ(resp.get_string("status"), "error");
    EXPECT_NE(resp.get_string("error").find("unknown params key \"parallel\""),
              std::string::npos)
        << resp.dump();
}

TEST(FlowServerTest, SubmitRunTraceLifecycle) {
    FlowServer server(*find_node("28nm"), small_server_opts());
    JsonValue submit = JsonValue::object();
    submit.set("cmd", "submit_design");
    submit.set("session", "mesh");
    submit.set("netlist", mesh_text(400, 7, 2));
    JsonValue params = JsonValue::object();
    params.set("workers", 2);
    params.set("placer_iterations", 60);
    submit.set("params", std::move(params));
    const JsonValue created = request_ok(server, submit.dump());
    EXPECT_GT(created.get_int("instances"), 0);

    JsonValue run = JsonValue::object();
    run.set("cmd", "run_to");
    run.set("session", "mesh");
    run.set("stage", "legalize");
    const JsonValue ran = request_ok(server, run.dump());
    EXPECT_EQ(ran.get_string("stage"), "legalize");
    EXPECT_TRUE(ran.at("legal").as_bool());
    EXPECT_GT(ran.get_real("hpwl_um"), 0.0);

    const JsonValue traced = request_ok(
        server, "{\"cmd\":\"query_trace\",\"session\":\"mesh\"}");
    const JsonValue& trace = traced.at("trace");
    EXPECT_FALSE(trace.at("stages").items().empty());
    bool saw_place = false;
    for (const JsonValue& stage : trace.at("stages").items()) {
        if (stage.get_string("stage") == "place") {
            saw_place = true;
            EXPECT_NE(stage.find("detail"), nullptr);
        }
    }
    EXPECT_TRUE(saw_place);
    // The reply embeds the session's trace record itself, not a re-parse.
    EXPECT_EQ(trace.dump(),
              stage_trace_json(server.sessions().find("mesh")->trace()).dump());

    const JsonValue timed =
        request_ok(server, "{\"cmd\":\"timing\",\"session\":\"mesh\"}");
    EXPECT_FALSE(timed.get_string("report").empty());
    EXPECT_GT(timed.get_real("critical_delay_ps"), 0.0);
}

TEST(FlowServerTest, SessionRegistryEvictsLeastRecentlyUsed) {
    FlowServer server(*find_node("28nm"), small_server_opts(1, 2));
    for (const char* name : {"a", "b", "c"}) {
        JsonValue submit = JsonValue::object();
        submit.set("cmd", "submit_design");
        submit.set("session", name);
        submit.set("netlist", mesh_text(100, 3, 0));
        request_ok(server, submit.dump());
    }
    const JsonValue listed = request_ok(server, "{\"cmd\":\"list_sessions\"}");
    const auto& names = listed.at("sessions").items();
    ASSERT_EQ(names.size(), 2u);  // capacity 2: "a" was evicted
    EXPECT_EQ(names[0].as_string(), "c");
    EXPECT_EQ(names[1].as_string(), "b");
    EXPECT_EQ(listed.get_int("evictions"), 1);

    const JsonValue gone = parse_json(server.handle_request(
        "{\"cmd\":\"timing\",\"session\":\"a\"}"));
    EXPECT_EQ(gone.get_string("status"), "error");

    const JsonValue evicted =
        request_ok(server, "{\"cmd\":\"evict\",\"session\":\"b\"}");
    EXPECT_TRUE(evicted.at("evicted").as_bool());
    EXPECT_EQ(request_ok(server, "{\"cmd\":\"list_sessions\"}")
                  .at("sessions")
                  .items()
                  .size(),
              1u);
}

// ------------------------------------------------- ECO byte-identity

/// Runs the reference side of the ECO contract without the server: the
/// same deterministic flow to the same stage, the same resize applied to
/// the netlist, then a cold full TimingGraph analyze. The placement's HPWL
/// is summed both ways the library can: total_hpwl_um() and a fresh
/// NetBBoxCache.
struct ColdRerun {
    std::string instance;
    std::string cell;
    std::string report;
    double hpwl_um = 0;
    double bbox_hpwl_um = 0;
};

ColdRerun cold_rerun(const std::string& netlist_text, const FlowParams& params,
                     const TechnologyNode& node, std::string_view stage) {
    FlowEngine engine;
    FlowParams p = params;
    FlowContext ctx(netlist_from_string(netlist_text, lib28()), node, p);
    engine.run_to(ctx, stage);

    ColdRerun out;
    out.hpwl_um = total_hpwl_um(ctx.netlist, ctx.area);
    out.bbox_hpwl_um = NetBBoxCache(ctx.netlist, ctx.area).total_hpwl_um();
    StaOptions sta;
    sta.wire = WireModel::for_node(node);
    {
        // Choose the edit: the first critical-path instance with a larger
        // drive variant.
        TimingGraph probe(ctx.netlist, sta);
        probe.analyze();
        const TimingReport before = probe.report();
        const CellLibrary& lib = ctx.netlist.library();
        for (const InstId i : before.critical_path) {
            const CellType& cur = ctx.netlist.type_of(i);
            for (const std::size_t v : lib.variants(cur.function)) {
                if (lib.cell(v).drive > cur.drive) {
                    out.instance = std::string(ctx.netlist.instance_name(i));
                    out.cell = lib.cell(v).name;
                    ctx.netlist.instance(i).type = v;
                    break;
                }
            }
            if (!out.instance.empty()) break;
        }
    }
    EXPECT_FALSE(out.instance.empty()) << "no resizable critical instance";
    // Cold full re-run: a fresh graph, full analysis, formatted report.
    TimingGraph cold(ctx.netlist, sta);
    cold.analyze();
    out.report = format_timing_report(ctx.netlist, cold.report());
    return out;
}

TEST(FlowServerTest, EcoResizeMatchesColdRerunByteForByte) {
    const TechnologyNode node = *find_node("28nm");
    const std::string text = mesh_text(2000, 17, 2);
    FlowParams params;
    params.placer_iterations = 60;
    const ColdRerun expected = cold_rerun(text, params, node, "legalize");

    FlowServer server(node, small_server_opts());
    JsonValue submit = JsonValue::object();
    submit.set("cmd", "submit_design");
    submit.set("session", "eco");
    submit.set("netlist", text);
    JsonValue jparams = JsonValue::object();
    jparams.set("placer_iterations", 60);
    submit.set("params", std::move(jparams));
    request_ok(server, submit.dump());
    request_ok(server,
               "{\"cmd\":\"run_to\",\"session\":\"eco\",\"stage\":\"legalize\"}");
    // Warm the timing graph, as an interactive closure loop would.
    const JsonValue warm =
        request_ok(server, "{\"cmd\":\"timing\",\"session\":\"eco\"}");
    EXPECT_FALSE(warm.get_string("report").empty());

    JsonValue eco = JsonValue::object();
    eco.set("cmd", "eco");
    eco.set("session", "eco");
    JsonValue edits = JsonValue::array();
    JsonValue edit = JsonValue::object();
    edit.set("kind", "resize");
    edit.set("instance", expected.instance);
    edit.set("cell", expected.cell);
    edits.push(std::move(edit));
    eco.set("edits", std::move(edits));
    const JsonValue resp = request_ok(server, eco.dump());

    // Warm incremental answer, byte-identical to the cold full re-run.
    EXPECT_TRUE(resp.at("incremental").as_bool());
    EXPECT_EQ(resp.get_string("report"), expected.report);
    // And dramatically cheaper than a full analysis.
    const std::int64_t evals = resp.get_int("evals");
    const std::int64_t full = resp.get_int("full_evals");
    EXPECT_GT(evals, 0);
    EXPECT_LT(evals, full);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

JsonValue eco_request(const std::string& session, JsonValue edit) {
    JsonValue eco = JsonValue::object();
    eco.set("cmd", "eco");
    eco.set("session", session);
    JsonValue edits = JsonValue::array();
    edits.push(std::move(edit));
    eco.set("edits", std::move(edits));
    return eco;
}

TEST(FlowServerTest, SessionHpwlFollowsThePlacementNotTheRequest) {
    const TechnologyNode node = *find_node("28nm");
    const std::string text = mesh_text(2000, 17, 2);
    FlowParams params;
    params.placer_iterations = 60;
    const ColdRerun expected = cold_rerun(text, params, node, "legalize");
    ASSERT_GT(expected.hpwl_um, 0.0);

    FlowServer server(node, small_server_opts());
    JsonValue submit = JsonValue::object();
    submit.set("cmd", "submit_design");
    submit.set("session", "h");
    submit.set("netlist", text);
    JsonValue jparams = JsonValue::object();
    jparams.set("placer_iterations", 60);
    submit.set("params", std::move(jparams));
    request_ok(server, submit.dump());
    const std::string timing_line = "{\"cmd\":\"timing\",\"session\":\"h\"}";

    // Nothing is placed yet, so there is no wirelength.
    EXPECT_EQ(request_ok(server, timing_line).get_real("hpwl_um"), 0.0);

    // After placement: the same bits as both ways of summing it cold.
    request_ok(server,
               "{\"cmd\":\"run_to\",\"session\":\"h\",\"stage\":\"legalize\"}");
    const double placed = request_ok(server, timing_line).get_real("hpwl_um");
    EXPECT_TRUE(same_bits(placed, expected.hpwl_um))
        << placed << " vs " << expected.hpwl_um;
    EXPECT_TRUE(same_bits(placed, expected.bbox_hpwl_um))
        << placed << " vs " << expected.bbox_hpwl_um;

    // An in-place resize moves no pin: the total is unchanged.
    JsonValue resize = JsonValue::object();
    resize.set("kind", "resize");
    resize.set("instance", expected.instance);
    resize.set("cell", expected.cell);
    const JsonValue resized =
        request_ok(server, eco_request("h", std::move(resize)).dump());
    EXPECT_TRUE(resized.at("incremental").as_bool());
    EXPECT_TRUE(same_bits(resized.get_real("hpwl_um"), placed));

    // A rewire bumps the netlist epoch: the reply sums the new connectivity.
    // The resized instance's first pin moves to a primary input, which
    // cannot close a loop and puts a far pad on a new net.
    const auto session = server.sessions().find("h");
    ASSERT_NE(session, nullptr);
    const Netlist& nl = session->context().netlist;
    const std::uint64_t epoch = nl.mutation_epoch();
    JsonValue rewire = JsonValue::object();
    rewire.set("kind", "rewire");
    rewire.set("instance", expected.instance);
    rewire.set("pin", 0);
    rewire.set("net", std::string(nl.net_name(nl.primary_inputs().front())));
    const JsonValue rewired =
        request_ok(server, eco_request("h", std::move(rewire)).dump());
    EXPECT_FALSE(rewired.at("incremental").as_bool());
    EXPECT_NE(nl.mutation_epoch(), epoch);
    const double after = rewired.get_real("hpwl_um");
    const PlacementArea& area = session->context().area;
    EXPECT_TRUE(same_bits(after, total_hpwl_um(nl, area)));
    EXPECT_TRUE(same_bits(after, NetBBoxCache(nl, area).total_hpwl_um()));
    EXPECT_NE(after, placed);
    // A timing query in the new epoch reads the same total.
    EXPECT_TRUE(same_bits(request_ok(server, timing_line).get_real("hpwl_um"), after));
}

TEST(FlowServerTest, EcoValidationIsAtomicAndRewireFallsBack) {
    const TechnologyNode node = *find_node("28nm");
    FlowServer server(node, small_server_opts());
    JsonValue submit = JsonValue::object();
    submit.set("cmd", "submit_design");
    submit.set("session", "s");
    submit.set("netlist", mesh_text(300, 5, 1));
    request_ok(server, submit.dump());
    request_ok(server,
               "{\"cmd\":\"run_to\",\"session\":\"s\",\"stage\":\"legalize\"}");
    const JsonValue warm =
        request_ok(server, "{\"cmd\":\"timing\",\"session\":\"s\"}");
    const std::string before = warm.get_string("report");

    // An edit naming a nonexistent instance must be rejected without
    // touching the session.
    JsonValue eco = JsonValue::object();
    eco.set("cmd", "eco");
    eco.set("session", "s");
    JsonValue edits = JsonValue::array();
    JsonValue bad = JsonValue::object();
    bad.set("kind", "resize");
    bad.set("instance", "no_such_instance");
    bad.set("cell", "NAND2_X4");
    edits.push(std::move(bad));
    eco.set("edits", std::move(edits));
    const JsonValue rejected = parse_json(server.handle_request(eco.dump()));
    EXPECT_EQ(rejected.get_string("status"), "error");
    // Session unharmed: timing unchanged byte for byte.
    const JsonValue after =
        request_ok(server, "{\"cmd\":\"timing\",\"session\":\"s\"}");
    EXPECT_EQ(after.get_string("report"), before);
}

// ------------------------------------------------------ socket transport

TEST(FlowServerTest, LoopbackRoundTripAndConcurrentMixedClients) {
    FlowServer server(*find_node("28nm"), small_server_opts(2));
    server.start();
    ASSERT_GT(server.port(), 0);

    {
        JanusClient client(server.port());
        const JsonValue pong = parse_json(client.request("{\"cmd\":\"ping\"}"));
        EXPECT_EQ(pong.get_string("reply"), "pong");

        JsonValue submit = JsonValue::object();
        submit.set("cmd", "submit_design");
        submit.set("session", "wire");
        submit.set("netlist", mesh_text(300, 9, 1));
        const JsonValue created = parse_json(client.request(submit.dump()));
        ASSERT_EQ(created.get_string("status"), "ok") << created.dump();
        const JsonValue ran = parse_json(client.request(
            "{\"cmd\":\"run_to\",\"session\":\"wire\",\"stage\":\"legalize\"}"));
        ASSERT_EQ(ran.get_string("status"), "ok") << ran.dump();
    }

    // Concurrent mixed load: one batch client re-running flows, one
    // interactive client pinging and timing the warm session. All
    // responses must be well-formed "ok".
    std::atomic<int> failures{0};
    std::thread batch([&] {
        try {
            JanusClient c(server.port());
            for (int i = 0; i < 3; ++i) {
                JsonValue submit = JsonValue::object();
                submit.set("cmd", "submit_design");
                submit.set("session", "batch" + std::to_string(i));
                submit.set("netlist", mesh_text(200, 20 + i, 0));
                if (parse_json(c.request(submit.dump())).get_string("status") !=
                    "ok") {
                    ++failures;
                }
                const std::string run =
                    "{\"cmd\":\"run_to\",\"session\":\"batch" +
                    std::to_string(i) + "\",\"stage\":\"place\"}";
                if (parse_json(c.request(run)).get_string("status") != "ok") {
                    ++failures;
                }
            }
        } catch (...) {
            ++failures;
        }
    });
    std::thread interactive([&] {
        try {
            JanusClient c(server.port());
            for (int i = 0; i < 10; ++i) {
                if (parse_json(c.request("{\"cmd\":\"ping\"}"))
                        .get_string("status") != "ok") {
                    ++failures;
                }
                if (parse_json(
                        c.request("{\"cmd\":\"timing\",\"session\":\"wire\"}"))
                        .get_string("status") != "ok") {
                    ++failures;
                }
            }
        } catch (...) {
            ++failures;
        }
    });
    batch.join();
    interactive.join();
    EXPECT_EQ(failures.load(), 0);

    server.stop();
    EXPECT_FALSE(server.running());
    // stop() is idempotent and the server can restart on a fresh port.
    server.stop();
    server.start();
    {
        JanusClient again(server.port());
        EXPECT_EQ(parse_json(again.request("{\"cmd\":\"ping\"}"))
                      .get_string("reply"),
                  "pong");
    }
    server.stop();
}

}  // namespace
}  // namespace janus
