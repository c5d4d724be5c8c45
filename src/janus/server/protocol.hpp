#pragma once
/// \file protocol.hpp
/// Wire protocol of the JanusEDA flow server: line-delimited JSON. Every
/// request is one JSON object on one line (`\n`-terminated); every response
/// is one JSON object on one line with a `"status"` member that is `"ok"`
/// or `"error"` (plus `"error"` text in the latter case). docs/SERVER.md
/// documents the full request vocabulary.
///
/// This header is the dependency-free JSON layer underneath: a small value
/// type (JsonValue), a strict recursive-descent parser, and a deterministic
/// serializer (members keep insertion order; reals render via
/// std::to_chars shortest round-trip), so identical values always encode
/// to identical bytes — the property the server's byte-compare tests and
/// session replay rely on.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace janus::server {

/// Malformed wire data (bad JSON, wrong type, missing member). The server
/// maps it to a `"status":"error"` response instead of dropping the
/// connection.
struct ProtocolError : std::runtime_error {
    explicit ProtocolError(const std::string& what) : std::runtime_error(what) {}
};

/// One JSON value. Integral and real numbers are kept distinct so integers
/// round-trip exactly (instance counts, eval totals). Object members keep
/// insertion order, making serialization deterministic.
class JsonValue {
  public:
    enum class Kind { Null, Bool, Int, Real, String, Array, Object };

    JsonValue() = default;  ///< null
    JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
    JsonValue(std::int64_t v) : kind_(Kind::Int), int_(v) {}
    JsonValue(int v) : kind_(Kind::Int), int_(v) {}
    JsonValue(std::size_t v)
        : kind_(Kind::Int), int_(static_cast<std::int64_t>(v)) {}
    JsonValue(double v) : kind_(Kind::Real), real_(v) {}
    JsonValue(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
    JsonValue(const char* s) : kind_(Kind::String), string_(s) {}

    static JsonValue array() {
        JsonValue v;
        v.kind_ = Kind::Array;
        return v;
    }
    static JsonValue object() {
        JsonValue v;
        v.kind_ = Kind::Object;
        return v;
    }

    Kind kind() const { return kind_; }
    bool is_null() const { return kind_ == Kind::Null; }
    bool is_object() const { return kind_ == Kind::Object; }
    bool is_array() const { return kind_ == Kind::Array; }
    bool is_string() const { return kind_ == Kind::String; }
    bool is_number() const { return kind_ == Kind::Int || kind_ == Kind::Real; }

    /// Typed accessors; throw ProtocolError on kind mismatch (ints coerce
    /// to real, never the reverse).
    bool as_bool() const;
    std::int64_t as_int() const;
    double as_real() const;
    const std::string& as_string() const;
    const std::vector<JsonValue>& items() const;
    const std::vector<std::pair<std::string, JsonValue>>& members() const;

    /// Object lookup; nullptr when absent (or when not an object).
    const JsonValue* find(std::string_view key) const;
    /// Object lookup that throws ProtocolError naming the missing member.
    const JsonValue& at(std::string_view key) const;
    /// Convenience: member string/int/real with a fallback when absent.
    std::string get_string(std::string_view key, std::string fallback = "") const;
    std::int64_t get_int(std::string_view key, std::int64_t fallback = 0) const;
    double get_real(std::string_view key, double fallback = 0.0) const;

    /// Sets an object member: a new key appends, an existing key is
    /// replaced in place (keeping its position), so dump() never emits a
    /// duplicate member the parser would reject. push appends to an array.
    JsonValue& set(std::string key, JsonValue value);
    JsonValue& push(JsonValue value);

    /// Compact deterministic serialization (no whitespace, member order =
    /// insertion order, shortest-round-trip reals).
    std::string dump() const;

    /// Object rendered one member per line (`"key": <compact value>`),
    /// braces on their own lines, trailing newline: the committed-file
    /// format (scenario baselines, BENCH_*.json ledgers) that diffs cleanly
    /// one entry at a time. Throws ProtocolError unless this is an object.
    std::string dump_lines() const;

  private:
    void dump_to(std::string& out) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::int64_t int_ = 0;
    double real_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses exactly one JSON value from `text` (trailing whitespace allowed,
/// trailing content is an error). Throws ProtocolError with a position on
/// malformed input. Nesting depth is capped so hostile input cannot blow
/// the stack.
JsonValue parse_json(std::string_view text);

/// Canonical response envelopes.
JsonValue make_ok_response();
JsonValue make_error_response(const std::string& message);

}  // namespace janus::server
