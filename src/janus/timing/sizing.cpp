#include "janus/timing/sizing.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "janus/timing/timing_graph.hpp"

namespace janus {

SizingResult size_for_timing(Netlist& nl, const SizingOptions& opts) {
    SizingResult res;
    const CellLibrary& lib = nl.library();

    TimingGraph tg(nl, opts.sta);
    tg.analyze();

    TimingReport tr = tg.report();
    res.wns_before_ps = tr.wns_ps;
    res.delay_before_ps = tr.critical_delay_ps;
    res.area_before_um2 = nl.total_area();

    for (int pass = 0; pass < kMaxSizingPasses; ++pass) {
        if (tr.met()) break;
        ++res.passes;

        // Candidate resizes: critical-path instances bumped to the smallest
        // variant whose drive strictly exceeds the current one.
        std::vector<std::pair<InstId, std::size_t>> undo;
        int resized = 0;
        double area_delta = 0.0;
        for (const InstId i : tr.critical_path) {
            const CellType& cur = nl.type_of(i);
            std::size_t next = nl.instance(i).type;
            double best_drive = 0.0;
            for (const std::size_t v : lib.variants(cur.function)) {
                const double d = lib.cell(v).drive;
                if (d > cur.drive && (next == nl.instance(i).type || d < best_drive)) {
                    next = v;
                    best_drive = d;
                }
            }
            if (next == nl.instance(i).type) continue;
            undo.emplace_back(i, nl.instance(i).type);
            area_delta += lib.cell(next).area_um2 - cur.area_um2;
            nl.instance(i).type = next;
            tg.resize(i);
            ++resized;
        }
        if (resized == 0) break;

        res.timing_evals += tg.update().instances_reevaluated();
        if (tg.critical_delay_ps() < tr.critical_delay_ps) {
            tr = tg.report();
            res.cells_resized += resized;
            res.area_delta_per_pass.push_back(area_delta);
        } else {
            // No improvement: roll back cell by cell and stop.
            for (const auto& [inst, type] : undo) {
                nl.instance(inst).type = type;
                tg.resize(inst);
            }
            res.timing_evals += tg.update().instances_reevaluated();
            break;
        }
    }

    res.wns_after_ps = tr.wns_ps;
    res.delay_after_ps = tr.critical_delay_ps;
    res.area_after_um2 = nl.total_area();
    return res;
}

}  // namespace janus
