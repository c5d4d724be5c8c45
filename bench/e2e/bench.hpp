#pragma once
/// \file bench.hpp
/// Shared pieces of the end-to-end benchmark: run options, operation
/// accounting, the per-run report and the five workload entry points.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "janus/netlist/cell_library.hpp"
#include "trace.hpp"

namespace janus::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunOptions {
    std::uint64_t seed = 1;
    /// Length of the measured phase. A traced run splits it into an
    /// untraced and a traced half.
    double seconds = 10;
    bool trace = false;
    /// Scaled-down inputs for a quick validation pass; same checks.
    bool smoke = false;
};

/// Operation counts. main.cpp places this struct in memory shared with the
/// parent process, so when a workload dies on a signal the parent still
/// knows how many operations it had started and finished.
struct OpCounters {
    std::atomic<std::int64_t> attempted{0};
    std::atomic<std::int64_t> completed{0};
    std::atomic<std::int64_t> failed{0};
};

/// What one workload run measured. Metric names are the ones BENCHMARK.json
/// lists; main.cpp prints the set the run mode asks for.
class Report {
  public:
    explicit Report(OpCounters& ops) : ops_(ops) {}

    void set(const std::string& name, double value) { metrics[name] = value; }

    /// An operation (a flow job, a request) starts; end_op finishes it.
    void begin_op() { ops_.attempted.fetch_add(1); }
    void end_op(bool ok, const std::string& what);
    /// A correctness check is one operation that starts and ends at once.
    bool check(bool ok, const std::string& what) {
        begin_op();
        end_op(ok, what);
        return ok;
    }

    std::map<std::string, double> metrics;

  private:
    OpCounters& ops_;
};

/// Timed results of one measured phase.
struct PhaseStats {
    std::vector<double> latency_ms;  ///< one per operation
    double busy_s = 0;               ///< time the throughput is taken over
    double instances = 0;            ///< input instances processed
};

/// Runs the measured phase(s). An untraced run measures one phase of
/// opts.seconds and sets inst_per_s and op_p50_ms. A traced run
/// measures an untraced and a traced half and sets trace.overhead_frac, the
/// share of throughput the tracing costs.
void measure(const RunOptions& opts, Report& report,
             const std::function<PhaseStats(double seconds, bool traced)>& phase);

/// Set-up is repeated and its median reported: at least three times, and
/// until a second has passed, so a short set-up is not measured in one
/// brief window of machine noise.
inline bool setup_done(std::size_t reps, double elapsed_s) {
    return reps >= 3 && elapsed_s >= 1.0;
}

/// p in [0, 1], linear interpolation between closest ranks.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// The 28 nm default cell library every workload runs on.
std::shared_ptr<const CellLibrary> make_lib();

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Workload entry points. Each generates its inputs from opts.seed, sets
/// them up, measures for opts.seconds, checks its outputs, and fills every
/// end-to-end metric (plus, when opts.trace, every per-layer metric it can
/// observe) into the report.
void run_flat_mesh(const RunOptions& opts, Report& report, Tracer& tracer);
void run_synth_random(const RunOptions& opts, Report& report, Tracer& tracer);
void run_corpus_batch(const RunOptions& opts, Report& report, Tracer& tracer);
void run_hier_mesh(const RunOptions& opts, Report& report, Tracer& tracer);
void run_eco_mixed(const RunOptions& opts, Report& report, Tracer& tracer);

}  // namespace janus::e2e
