/// janus_bench: the JanusEDA end-to-end benchmark (bench/e2e/README.md).
///
///   janus_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
///               [--trace-out FILE] [--smoke]
///
/// Without --workload every workload runs, one after another. Each workload
/// runs in a child process of its own, so a crash ends only that workload:
/// its unfinished operations count as failed, the signal is reported on
/// stderr, and the next workload runs. Per workload one JSON line goes to
/// stdout,
///
///   {"correct": true, "attempted": N, "failed": 0,
///    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
///
/// holding the end-to-end metrics (--trace 0) or the per-layer metrics
/// (--trace 1). Progress, failures and a readable metric table go to
/// stderr. The exit status is 0 when every workload ran and passed its
/// checks.

#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "janus/scenario/scenario.hpp"
#include "janus/server/protocol.hpp"

namespace janus::e2e {
namespace {

/// One metric as BENCHMARK.json lists it; the benchmark prints exactly the
/// metrics listed there, so the file is the single list of names and units.
struct MetricDef {
    std::string name;
    std::string unit;
};

/// The end-to-end (trace off) or per-layer (trace on) metrics of
/// BENCHMARK.json at the repository root.
std::vector<MetricDef> load_metrics(bool per_layer) {
    const std::string root = scenario::find_repo_root();
    std::ifstream in(root + "/BENCHMARK.json");
    if (root.empty() || !in) throw std::runtime_error("BENCHMARK.json not found");
    std::ostringstream text;
    text << in.rdbuf();
    const server::JsonValue spec = server::parse_json(text.str());
    std::vector<MetricDef> defs;
    for (const server::JsonValue& m : spec.at(per_layer ? "per_layer" : "end_to_end").items()) {
        defs.push_back({m.get_string("name"), m.get_string("unit")});
    }
    return defs;
}

struct Workload {
    const char* name;
    void (*run)(const RunOptions&, Report&, Tracer&);
};

constexpr Workload kWorkloads[] = {
    {"flat_mesh", run_flat_mesh},       {"synth_random", run_synth_random},
    {"corpus_batch", run_corpus_batch}, {"hier_mesh", run_hier_mesh},
    {"eco_mixed", run_eco_mixed},
};

struct Args {
    std::string workload;  ///< empty = all
    std::string trace_out;
    RunOptions opts;
    std::vector<MetricDef> metrics;  ///< what a run prints
};

[[noreturn]] void usage(const char* msg) {
    std::fprintf(stderr,
                 "janus_bench: %s\nusage: janus_bench [--workload NAME] [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out FILE] [--smoke]\n",
                 msg);
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
            return argv[++i];
        };
        try {
            if (flag == "--workload") a.workload = value();
            else if (flag == "--seed") a.opts.seed = std::stoull(value());
            else if (flag == "--seconds") a.opts.seconds = std::stod(value());
            else if (flag == "--trace") a.opts.trace = std::stoi(value()) != 0;
            else if (flag == "--trace-out") a.trace_out = value();
            else if (flag == "--smoke") a.opts.smoke = true;
            else usage(("unknown flag " + flag).c_str());
        } catch (const std::logic_error&) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (!(a.opts.seconds > 0)) usage("--seconds must be positive");
    if (!a.trace_out.empty()) a.opts.trace = true;
    if (a.opts.smoke) a.opts.seconds = std::min(a.opts.seconds, 2.0);
    try {
        a.metrics = load_metrics(a.opts.trace);
    } catch (const std::exception& e) {
        usage(e.what());
    }
    return a;
}

/// Child side: runs one workload and writes its metrics object to `fd`.
void run_child(const Workload& w, const Args& a, OpCounters& ops, int fd) {
    Tracer tracer(a.opts.trace);
    Report report(ops);
    try {
        w.run(a.opts, report, tracer);
    } catch (const std::exception& e) {
        report.check(false, std::string("workload threw: ") + e.what());
    }
    report.set("peak_rss_mb", peak_rss_mb());
    if (a.opts.trace) {
        const auto self = tracer.layer_self_s();
        double total = 0;
        for (const auto& [layer, s] : self) total += s;
        for (const auto& [layer, s] : self) {
            report.set(layer + ".self_frac", total > 0 ? s / total : 0.0);
        }
        if (!a.trace_out.empty()) tracer.write(a.trace_out);
    }

    server::JsonValue metrics = server::JsonValue::object();
    for (const MetricDef& m : a.metrics) {
        const auto it = report.metrics.find(m.name);
        // A per-layer metric reads 0 where the workload does not reach that
        // layer; an end-to-end metric is always measured.
        if (it == report.metrics.end() && !a.opts.trace) {
            report.check(false, "metric not measured: " + m.name);
        }
        server::JsonValue entry = server::JsonValue::object();
        entry.set("value", it != report.metrics.end() ? it->second : 0.0);
        entry.set("unit", m.unit);
        metrics.set(m.name, std::move(entry));
    }
    const std::string text = metrics.dump();
    for (std::size_t off = 0; off < text.size();) {
        const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
        if (n <= 0) break;
        off += static_cast<std::size_t>(n);
    }
}

/// Reads everything the child writes, killing it if it outlives `limit_s`.
std::string read_child(int fd, pid_t pid, double limit_s) {
    std::string out;
    const auto t0 = Clock::now();
    char buf[65536];
    for (;;) {
        const double left = limit_s - seconds_since(t0);
        if (left <= 0) {
            std::fprintf(stderr, "timed out after %.0f s, killing the workload\n", limit_s);
            ::kill(pid, SIGKILL);
            break;
        }
        pollfd p{fd, POLLIN, 0};
        const int r = ::poll(&p, 1, static_cast<int>(std::min(left, 1.0) * 1000) + 1);
        if (r < 0 && errno == EINTR) continue;
        if (r <= 0) continue;
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
}

/// Runs one workload in a child process; returns its result line.
server::JsonValue run_workload(const Workload& w, const Args& a) {
    void* mem = ::mmap(nullptr, sizeof(OpCounters), PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) throw std::runtime_error("mmap failed");
    OpCounters* ops = new (mem) OpCounters();
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
        ::close(fds[0]);
        run_child(w, a, *ops, fds[1]);
        ::close(fds[1]);
        std::_Exit(0);
    }
    ::close(fds[1]);
    // A run normally ends within --seconds plus about 10 s of input
    // generation, set-up and checks.
    const std::string text = read_child(fds[0], pid, 2 * a.opts.seconds + 90);
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }

    const std::int64_t attempted = ops->attempted.load();
    std::int64_t failed = ops->failed.load();
    bool correct = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        std::fprintf(stderr, "workload %s killed by signal %d (%s)\n", w.name, sig,
                     strsignal(sig));
        // Operations started but never finished died with the process; a
        // crash between operations still fails the run.
        failed += std::max<std::int64_t>(1, attempted - ops->completed.load());
    }
    ::munmap(mem, sizeof(OpCounters));

    server::JsonValue metrics = server::JsonValue::object();
    if (correct && !text.empty()) metrics = server::parse_json(text);
    correct = correct && failed == 0 && !text.empty();

    server::JsonValue line = server::JsonValue::object();
    line.set("correct", correct);
    line.set("attempted", std::max<std::int64_t>(attempted, 1));
    line.set("failed", failed);
    line.set("metrics", std::move(metrics));
    return line;
}

}  // namespace
}  // namespace janus::e2e

int main(int argc, char** argv) {
    using namespace janus::e2e;
    const Args args = parse_args(argc, argv);
    std::vector<const Workload*> selected;
    for (const Workload& w : kWorkloads) {
        if (args.workload.empty() || args.workload == w.name) selected.push_back(&w);
    }
    if (selected.empty()) usage(("unknown workload " + args.workload).c_str());

    bool all_correct = true;
    for (const Workload* w : selected) {
        std::fprintf(stderr, "== %s (seed %llu, %.1f s%s%s)\n", w->name,
                     static_cast<unsigned long long>(args.opts.seed), args.opts.seconds,
                     args.opts.trace ? ", traced" : "", args.opts.smoke ? ", smoke" : "");
        const janus::server::JsonValue line = run_workload(*w, args);
        const janus::server::JsonValue& metrics = line.at("metrics");
        for (const auto& [name, m] : metrics.members()) {
            std::fprintf(stderr, "  %-28s %16.6g %s\n", name.c_str(),
                         m.get_real("value"), m.get_string("unit").c_str());
        }
        std::fprintf(stderr, "  correct=%s attempted=%lld failed=%lld\n",
                     line.at("correct").as_bool() ? "true" : "false",
                     static_cast<long long>(line.get_int("attempted")),
                     static_cast<long long>(line.get_int("failed")));
        all_correct = all_correct && line.at("correct").as_bool();
        std::printf("%s\n", line.dump().c_str());
        std::fflush(stdout);
    }
    return all_correct ? 0 : 1;
}
