#pragma once
/// \file report.hpp
/// Human-readable QoR reporting for flow runs, plus the per-stage trace
/// recorder the flow engine fills in (wall time, instance counts, QoR cost
/// deltas, typed stage notes) and its JSON serialization for the bench
/// harness and the flow server.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "janus/flow/flow.hpp"
#include "janus/server/protocol.hpp"

namespace janus {

/// One typed key/value observation a stage leaves in its trace entry
/// (e.g. the route stage's "batches" = 12). Replaces the packed free-form
/// `stage_note` string: notes serialize as structured JSON fields, so the
/// bench harness and the flow server read them without string parsing.
struct StageNote {
    enum class Kind : std::uint8_t { Int, Real, Text };
    std::string key;
    Kind kind = Kind::Int;
    std::int64_t int_value = 0;
    double real_value = 0;
    std::string text_value;
};

/// Observation of one pipeline stage within one flow run.
struct StageTraceEntry {
    std::string stage;
    double wall_ms = 0;
    std::size_t instances = 0;  ///< netlist size after the stage ran
    /// FlowResult::cost() sampled at the stage boundary: the engine's
    /// scalar QoR figure, so cost_after - cost_before is the stage's
    /// QoR delta as metrics accumulate through the pipeline.
    double cost_before = 0;
    double cost_after = 0;
    /// Typed stage-specific observations in insertion order (e.g. the
    /// route stage's batches/conflicts/workers); empty for most stages.
    std::vector<StageNote> notes;
    bool skipped = false;  ///< disabled by mask, inapplicable, or ctx.skip()

    /// Note lookup by key; nullptr when absent.
    const StageNote* find_note(std::string_view key) const;
    /// Typed accessors with a fallback for absent/mistyped keys. note_int
    /// and note_real convert between the numeric kinds.
    std::int64_t note_int(std::string_view key, std::int64_t fallback = 0) const;
    double note_real(std::string_view key, double fallback = 0) const;
    std::string note_text(std::string_view key,
                          std::string fallback = "") const;
};

/// Per-run stage trace: what ran, how long it took, and what it did to QoR.
struct StageTrace {
    std::string design;
    std::vector<StageTraceEntry> entries;
    double total_ms = 0;            ///< sum of executed stage wall times
    std::size_t peak_instances = 0; ///< max netlist size seen at any boundary

    /// Appends an entry and folds it into the totals.
    void add(StageTraceEntry entry);

    /// Typed key/value API for the stage currently executing: a stage
    /// records observations with note() and the engine attaches everything
    /// pending to that stage's entry at the stage boundary. Keys repeat the
    /// insertion order in the serialized JSON. Integral values (int,
    /// size_t, ...) store as Int, floating-point as Real, strings as Text.
    template <typename T,
              std::enable_if_t<std::is_integral_v<std::decay_t<T>>, int> = 0>
    void note(std::string key, T value) {
        note_int_impl(std::move(key), static_cast<std::int64_t>(value));
    }
    template <typename T, std::enable_if_t<
                              std::is_floating_point_v<std::decay_t<T>>, int> = 0>
    void note(std::string key, T value) {
        note_real_impl(std::move(key), static_cast<double>(value));
    }
    void note(std::string key, std::string value);
    void note(std::string key, const char* value);

    /// Moves the pending notes out (engine-internal; called at the stage
    /// boundary). Leaves the pending buffer empty.
    std::vector<StageNote> take_pending_notes();

  private:
    void note_int_impl(std::string key, std::int64_t value);
    void note_real_impl(std::string key, double value);

    std::vector<StageNote> pending_notes_;
};

/// One-line QoR summary.
std::string format_flow_result(const FlowResult& r);

/// Multi-run comparison table (fixed-width columns).
std::string format_flow_table(const std::vector<FlowResult>& runs);

/// JSON object for one trace, built on the server protocol's JsonValue so
/// it serializes with the same escaper and number renderer as every other
/// record. Stable key order so bench output diffs cleanly across runs.
/// Stage notes land as a structured `"detail": {"batches": 12, ...}`
/// object with their kinds kept (Int, Real, Text).
server::JsonValue stage_trace_json(const StageTrace& trace);

}  // namespace janus
