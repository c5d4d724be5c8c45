#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace janus::e2e {

void Report::end_op(bool ok, const std::string& what) {
    ops_.completed.fetch_add(1);
    if (ok) return;
    ops_.failed.fetch_add(1);
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

void measure(const RunOptions& opts, Report& report,
             const std::function<PhaseStats(double seconds, bool traced)>& phase) {
    const auto throughput = [](const PhaseStats& s) {
        return s.busy_s > 0 ? s.instances / s.busy_s : 0.0;
    };
    if (!opts.trace) {
        const PhaseStats s = phase(opts.seconds, false);
        report.set("inst_per_s", throughput(s));
        report.set("op_p50_ms", percentile(s.latency_ms, 0.50));
        // The tail goes to stderr only: the highest percentile with at
        // least ten samples beyond it, with the sample count.
        const double n = static_cast<double>(s.latency_ms.size());
        if (n >= 20) {
            const double p = std::min(0.99, 1.0 - 10.0 / n);
            std::fprintf(stderr, "  op p%.0f %.4g ms over %.0f ops\n", 100 * p,
                         percentile(s.latency_ms, p), n);
        } else {
            std::fprintf(stderr, "  %.0f ops: too few for a tail percentile\n", n);
        }
        return;
    }
    const PhaseStats plain = phase(opts.seconds / 2, false);
    const PhaseStats traced = phase(opts.seconds / 2, true);
    const double base = throughput(plain);
    report.set("trace.overhead_frac", base > 0 ? 1.0 - throughput(traced) / base : 0.0);
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::shared_ptr<const CellLibrary> make_lib() {
    return std::make_shared<const CellLibrary>(make_default_library(*find_node("28nm")));
}

double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

}  // namespace janus::e2e
