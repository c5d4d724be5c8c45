#include "janus/timing/sta.hpp"

#include <sstream>

#include "janus/timing/timing_graph.hpp"

namespace janus {

TimingReport run_sta(const Netlist& nl, const StaOptions& opts) {
    // Thin wrapper over the cached engine: one-shot build + full analysis.
    // Callers that query timing repeatedly (sizing loops, what-if resizes)
    // should hold a TimingGraph directly and use update().
    TimingGraph tg(nl, opts);
    tg.analyze();
    return tg.report();
}

std::string format_timing_report(const Netlist& nl, const TimingReport& r) {
    std::ostringstream os;
    os << "design " << nl.name() << ": critical delay " << r.critical_delay_ps
       << " ps, fmax " << r.fmax_ghz << " GHz, WNS " << r.wns_ps << " ps, TNS "
       << r.tns_ps << " ps (" << (r.met() ? "MET" : "VIOLATED") << ")\n";
    if (r.worst_endpoint != kNoNet) {
        os << "worst endpoint: net " << nl.net_name(r.worst_endpoint)
           << " (slack " << r.wns_ps << " ps)\n";
    }
    os << "critical path (" << r.critical_path.size() << " stages):";
    for (const InstId i : r.critical_path) {
        os << " " << nl.instance_name(i) << "(" << nl.type_of(i).name << ")";
    }
    os << "\n";
    return os.str();
}

}  // namespace janus
