#include "janus/scenario/scenario.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "janus/flow/flow_engine.hpp"
#include "janus/logic/aig_netlist.hpp"
#include "janus/logic/aiger.hpp"
#include "janus/netlist/blif.hpp"
#include "janus/netlist/io.hpp"
#include "janus/netlist/iscas.hpp"
#include "janus/timing/corners.hpp"

namespace janus::scenario {
namespace {

namespace fs = std::filesystem;

std::string fmt2(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", v);
    return buf;
}

std::string extension(const std::string& path) {
    const auto dot = path.find_last_of('.');
    const auto slash = path.find_last_of('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return "";
    }
    return path.substr(dot + 1);
}

std::string stem(const std::string& path) { return fs::path(path).stem().string(); }

const TimingCorner& corner_by_name(const std::string& name,
                                   const std::vector<TimingCorner>& corners) {
    for (const TimingCorner& c : corners) {
        if (c.name == name) return c;
    }
    throw std::runtime_error("unknown timing corner: " + name);
}

/// |a - b| within abs + rel*|b|.
bool near(double a, double b, double rel, double abs) {
    return std::abs(a - b) <= abs + rel * std::abs(b);
}

}  // namespace

std::string find_repo_root() {
    std::error_code ec;
    for (fs::path dir = fs::current_path(ec); !dir.empty() && !ec;
         dir = dir.parent_path()) {
        if (fs::exists(dir / "ROADMAP.md", ec)) return dir.string();
        if (dir == dir.root_path()) break;
    }
    return "";
}

Netlist load_design(const std::string& path,
                    std::shared_ptr<const CellLibrary> lib) {
    const std::string ext = extension(path);
    if (ext == "aag" || ext == "aig") {
        return netlist_from_aiger(read_aiger_file(path), std::move(lib));
    }
    std::ifstream in(path);
    if (!in) throw std::runtime_error("load_design: cannot open " + path);
    if (ext == "jnl") return read_netlist(in, std::move(lib));
    if (ext == "bench") return read_iscas(in, std::move(lib), stem(path));
    if (ext == "blif") return read_blif(in, std::move(lib));
    throw std::runtime_error("load_design: unknown design extension ." + ext +
                             " (" + path + ")");
}

std::string ScenarioCell::key() const {
    return design + "@" + corner + "/u" + fmt2(utilization) + "/L" +
           std::to_string(routing_layers);
}

std::vector<ScenarioCell> ScenarioMatrix::expand() const {
    std::vector<ScenarioCell> cells;
    cells.reserve(designs.size() * corners.size() * utilizations.size() *
                  layer_budgets.size());
    for (const std::string& d : designs) {
        for (const std::string& c : corners) {
            for (const double u : utilizations) {
                for (const int l : layer_budgets) {
                    cells.push_back(ScenarioCell{d, c, u, l});
                }
            }
        }
    }
    return cells;
}

std::vector<ScenarioResult> run_scenarios(const std::vector<ScenarioCell>& cells,
                                          const std::string& corpus_dir,
                                          std::shared_ptr<const CellLibrary> lib,
                                          int workers,
                                          const FlowParams& base) {
    std::vector<ScenarioResult> out(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) out[i].cell = cells[i];

    // Parse each distinct design once; a parse failure fails only the
    // scenarios that reference that file.
    std::map<std::string, Netlist> designs;
    std::map<std::string, std::string> parse_errors;
    for (const ScenarioCell& c : cells) {
        if (designs.count(c.design) || parse_errors.count(c.design)) continue;
        try {
            designs.emplace(c.design,
                            load_design(corpus_dir + "/" + c.design, lib));
        } catch (const std::exception& e) {
            parse_errors.emplace(c.design, e.what());
        }
    }

    const auto corners = standard_corners();
    std::vector<FlowJob> jobs;
    std::vector<std::size_t> job_slot;  // result index of jobs[j]
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ScenarioCell& c = cells[i];
        const auto perr = parse_errors.find(c.design);
        if (perr != parse_errors.end()) {
            out[i].error = "parse: " + perr->second;
            continue;
        }
        try {
            corner_by_name(c.corner, corners);
        } catch (const std::exception& e) {
            out[i].error = e.what();
            continue;
        }
        FlowParams params = base;
        params.utilization = c.utilization;
        params.routing_layers = c.routing_layers;
        jobs.push_back(FlowJob{designs.at(c.design), *find_node("28nm"), params});
        job_slot.push_back(i);
    }

    FlowEngine engine;
    const std::vector<FlowResult> results = engine.run_batch(std::move(jobs), workers);

    for (std::size_t j = 0; j < results.size(); ++j) {
        ScenarioResult& r = out[job_slot[j]];
        r.flow = results[j];
        if (r.flow.failed()) {
            r.error = "flow: " + r.flow.error;
            continue;
        }
        if (!r.flow.mapped) {
            r.error = "flow: no mapped netlist";
            continue;
        }
        StaOptions sta;
        const TimingCorner corner = corner_by_name(r.cell.corner, corners);
        const MultiCornerReport mc =
            run_multi_corner(*r.flow.mapped, sta, {corner});
        r.corner_wns_ps = mc.reports.at(0).wns_ps;
        r.corner_hold_ps = mc.reports.at(0).hold_wns_ps;
    }
    return out;
}

server::JsonValue result_json(const ScenarioResult& r) {
    using server::JsonValue;
    JsonValue o = JsonValue::object();
    o.set("instances", JsonValue(r.flow.instances));
    o.set("area_um2", JsonValue(r.flow.area_um2));
    o.set("hpwl_um", JsonValue(r.flow.hpwl_um));
    o.set("route_wirelength", JsonValue(r.flow.route_wirelength));
    o.set("route_overflow", JsonValue(r.flow.route_overflow));
    o.set("critical_delay_ps", JsonValue(r.flow.critical_delay_ps));
    o.set("wns_ps", JsonValue(r.flow.wns_ps));
    o.set("corner_wns_ps", JsonValue(r.corner_wns_ps));
    o.set("corner_hold_ps", JsonValue(r.corner_hold_ps));
    o.set("total_power_mw", JsonValue(r.flow.total_power_mw));
    o.set("clock_skew_ps", JsonValue(r.flow.clock_skew_ps));
    o.set("cells_resized", JsonValue(std::int64_t{r.flow.cells_resized}));
    o.set("legal", JsonValue(r.flow.legal));
    o.set("runtime_ms", JsonValue(r.flow.runtime_ms));
    return o;
}

std::vector<std::string> diff_against_baseline(
    const std::vector<ScenarioResult>& results,
    const server::JsonValue& baseline, const Tolerances& tol) {
    std::vector<std::string> bad;
    const auto flag = [&](const std::string& key, const std::string& what) {
        bad.push_back(key + ": " + what);
    };
    for (const ScenarioResult& r : results) {
        const std::string key = r.cell.key();
        if (r.failed()) {
            flag(key, "scenario failed: " + r.error);
            continue;
        }
        const server::JsonValue* b =
            baseline.is_object() ? baseline.find(key) : nullptr;
        if (!b) {
            flag(key, "no pinned baseline (run bench_scenarios --update-baselines)");
            continue;
        }
        const server::JsonValue actual = result_json(r);

        // Discrete QoR pins exactly: any drift is a real structural change.
        for (const char* k :
             {"instances", "route_wirelength", "cells_resized"}) {
            const std::int64_t want = b->get_int(k, -1);
            const std::int64_t got = actual.get_int(k, -2);
            if (want != got) {
                flag(key, std::string(k) + " " + std::to_string(got) +
                              " != baseline " + std::to_string(want));
            }
        }
        if (b->find("legal") && b->at("legal").as_bool() != r.flow.legal) {
            flag(key, r.flow.legal ? "became legal (update baseline)"
                                   : "placement no longer legal");
        }
        // Analog QoR within a relative band (plus a small absolute band so
        // near-zero slacks do not trip on rounding).
        for (const char* k : {"area_um2", "hpwl_um", "route_overflow",
                              "critical_delay_ps", "wns_ps", "corner_wns_ps",
                              "corner_hold_ps", "total_power_mw",
                              "clock_skew_ps"}) {
            if (!b->find(k)) continue;
            const double want = b->get_real(k, 0);
            const double got = actual.get_real(k, 0);
            if (!near(got, want, tol.analog_rel, tol.analog_abs_ps)) {
                char buf[160];
                std::snprintf(buf, sizeof buf, "%s %.4f outside %.1f%% of %.4f",
                              k, got, 100.0 * tol.analog_rel, want);
                flag(key, buf);
            }
        }
        if (tol.check_runtime) {
            const double want = b->get_real("runtime_ms", 0);
            if (want > 0 && r.flow.runtime_ms > tol.runtime_ratio * want) {
                char buf[120];
                std::snprintf(buf, sizeof buf,
                              "runtime %.1fms > %.0fx baseline %.1fms",
                              r.flow.runtime_ms, tol.runtime_ratio, want);
                flag(key, buf);
            }
        }
    }
    return bad;
}

server::JsonValue load_baseline(const std::string& path) {
    std::ifstream in(path);
    if (!in) return server::JsonValue();
    std::ostringstream ss;
    ss << in.rdbuf();
    return server::parse_json(ss.str());
}

void save_baseline(const std::string& path,
                   const std::vector<ScenarioResult>& results) {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("save_baseline: cannot write " + path);
    // One scenario per line so baseline refreshes diff cleanly in review.
    server::JsonValue baseline = server::JsonValue::object();
    for (const ScenarioResult& r : results) {
        baseline.set(r.cell.key(), result_json(r));
    }
    os << baseline.dump_lines();
}

}  // namespace janus::scenario
