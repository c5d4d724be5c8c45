#include "janus/flow/report.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace janus {

const StageNote* StageTraceEntry::find_note(std::string_view key) const {
    for (const StageNote& n : notes) {
        if (n.key == key) return &n;
    }
    return nullptr;
}

std::int64_t StageTraceEntry::note_int(std::string_view key,
                                       std::int64_t fallback) const {
    const StageNote* n = find_note(key);
    if (!n) return fallback;
    if (n->kind == StageNote::Kind::Int) return n->int_value;
    if (n->kind == StageNote::Kind::Real) {
        return static_cast<std::int64_t>(n->real_value);
    }
    return fallback;
}

double StageTraceEntry::note_real(std::string_view key, double fallback) const {
    const StageNote* n = find_note(key);
    if (!n) return fallback;
    if (n->kind == StageNote::Kind::Real) return n->real_value;
    if (n->kind == StageNote::Kind::Int) {
        return static_cast<double>(n->int_value);
    }
    return fallback;
}

std::string StageTraceEntry::note_text(std::string_view key,
                                       std::string fallback) const {
    const StageNote* n = find_note(key);
    if (!n || n->kind != StageNote::Kind::Text) return fallback;
    return n->text_value;
}

void StageTrace::add(StageTraceEntry entry) {
    if (!entry.skipped) total_ms += entry.wall_ms;
    peak_instances = std::max(peak_instances, entry.instances);
    entries.push_back(std::move(entry));
}

void StageTrace::note(std::string key, std::string value) {
    StageNote n;
    n.key = std::move(key);
    n.kind = StageNote::Kind::Text;
    n.text_value = std::move(value);
    pending_notes_.push_back(std::move(n));
}

void StageTrace::note(std::string key, const char* value) {
    note(std::move(key), std::string(value));
}

void StageTrace::note_int_impl(std::string key, std::int64_t value) {
    StageNote n;
    n.key = std::move(key);
    n.kind = StageNote::Kind::Int;
    n.int_value = value;
    pending_notes_.push_back(std::move(n));
}

void StageTrace::note_real_impl(std::string key, double value) {
    StageNote n;
    n.key = std::move(key);
    n.kind = StageNote::Kind::Real;
    n.real_value = value;
    pending_notes_.push_back(std::move(n));
}

std::vector<StageNote> StageTrace::take_pending_notes() {
    std::vector<StageNote> out = std::move(pending_notes_);
    pending_notes_.clear();
    return out;
}

std::string format_flow_result(const FlowResult& r) {
    std::ostringstream os;
    os << r.design << ": " << r.instances << " inst, area " << std::fixed
       << std::setprecision(1) << r.area_um2 << " um2, HPWL " << r.hpwl_um
       << " um, route " << r.route_wirelength << " (ovfl " << r.route_overflow
       << "), delay " << r.critical_delay_ps << " ps, power "
       << std::setprecision(3) << r.total_power_mw << " mW, "
       << (r.legal ? "legal" : "ILLEGAL") << ", " << std::setprecision(0)
       << r.runtime_ms << " ms";
    return os.str();
}

std::string format_flow_table(const std::vector<FlowResult>& runs) {
    std::ostringstream os;
    os << std::left << std::setw(18) << "design" << std::right << std::setw(9)
       << "inst" << std::setw(12) << "area_um2" << std::setw(11) << "hpwl_um"
       << std::setw(9) << "route" << std::setw(7) << "ovfl" << std::setw(10)
       << "delay_ps" << std::setw(10) << "power_mW" << std::setw(9) << "time_ms"
       << "\n";
    for (const FlowResult& r : runs) {
        os << std::left << std::setw(18) << r.design << std::right << std::fixed
           << std::setw(9) << r.instances << std::setw(12) << std::setprecision(0)
           << r.area_um2 << std::setw(11) << r.hpwl_um << std::setw(9)
           << r.route_wirelength << std::setw(7) << std::setprecision(0)
           << r.route_overflow << std::setw(10) << std::setprecision(1)
           << r.critical_delay_ps << std::setw(10) << std::setprecision(3)
           << r.total_power_mw << std::setw(9) << std::setprecision(0)
           << r.runtime_ms << "\n";
    }
    return os.str();
}

server::JsonValue stage_trace_json(const StageTrace& trace) {
    using server::JsonValue;
    JsonValue stages = JsonValue::array();
    for (const StageTraceEntry& e : trace.entries) {
        JsonValue s = JsonValue::object();
        s.set("stage", e.stage);
        s.set("wall_ms", e.wall_ms);
        s.set("instances", e.instances);
        s.set("cost_before", e.cost_before);
        s.set("cost_after", e.cost_after);
        if (!e.notes.empty()) {
            JsonValue detail = JsonValue::object();
            for (const StageNote& n : e.notes) {
                detail.set(n.key, n.kind == StageNote::Kind::Int
                                      ? JsonValue(n.int_value)
                                  : n.kind == StageNote::Kind::Real
                                      ? JsonValue(n.real_value)
                                      : JsonValue(n.text_value));
            }
            s.set("detail", std::move(detail));
        }
        s.set("skipped", e.skipped);
        stages.push(std::move(s));
    }
    JsonValue out = JsonValue::object();
    out.set("design", trace.design);
    out.set("total_ms", trace.total_ms);
    out.set("peak_instances", trace.peak_instances);
    out.set("stages", std::move(stages));
    return out;
}

}  // namespace janus
