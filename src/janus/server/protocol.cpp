#include "janus/server/protocol.hpp"

#include <charconv>
#include <cstdio>

namespace janus::server {
namespace {

[[noreturn]] void type_error(const char* wanted, JsonValue::Kind got) {
    static const char* const names[] = {"null",   "bool",  "int",   "real",
                                        "string", "array", "object"};
    throw ProtocolError(std::string("expected ") + wanted + ", got " +
                        names[static_cast<int>(got)]);
}

void escape_to(const std::string& s, std::string& out) {
    out += '"';
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

/// Strict recursive-descent JSON parser over a string_view.
class Parser {
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue parse() {
        JsonValue v = value(0);
        skip_ws();
        if (pos_ != text_.size()) fail("trailing content after JSON value");
        return v;
    }

  private:
    static constexpr int kMaxDepth = 64;

    [[noreturn]] void fail(const std::string& why) const {
        throw ProtocolError("JSON parse error at byte " + std::to_string(pos_) +
                            ": " + why);
    }

    void skip_ws() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(std::string_view lit) {
        if (text_.substr(pos_, lit.size()) != lit) return false;
        pos_ += lit.size();
        return true;
    }

    JsonValue value(int depth) {
        if (depth > kMaxDepth) fail("nesting too deep");
        skip_ws();
        const char c = peek();
        switch (c) {
            case '{': return object(depth);
            case '[': return array(depth);
            case '"': return JsonValue(string());
            case 't':
                if (!consume_literal("true")) fail("bad literal");
                return JsonValue(true);
            case 'f':
                if (!consume_literal("false")) fail("bad literal");
                return JsonValue(false);
            case 'n':
                if (!consume_literal("null")) fail("bad literal");
                return JsonValue();
            default: return number();
        }
    }

    JsonValue object(int depth) {
        expect('{');
        JsonValue v = JsonValue::object();
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skip_ws();
            if (peek() != '"') fail("expected member name");
            std::string key = string();
            if (v.find(key)) fail("duplicate member \"" + key + "\"");
            skip_ws();
            expect(':');
            v.set(std::move(key), value(depth + 1));
            skip_ws();
            const char sep = peek();
            ++pos_;
            if (sep == '}') return v;
            if (sep != ',') fail("expected ',' or '}'");
        }
    }

    JsonValue array(int depth) {
        expect('[');
        JsonValue v = JsonValue::array();
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.push(value(depth + 1));
            skip_ws();
            const char sep = peek();
            ++pos_;
            if (sep == ']') return v;
            if (sep != ',') fail("expected ',' or ']'");
        }
    }

    std::string string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("raw control character in string");
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': out += unicode_escape(); break;
                default: fail("bad escape");
            }
        }
    }

    std::string unicode_escape() {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
        }
        // UTF-8 encode the basic-multilingual-plane code point (surrogate
        // pairs are rejected — netlist/stage names are ASCII in practice).
        if (cp >= 0xD800 && cp <= 0xDFFF) fail("surrogate \\u escape unsupported");
        std::string out;
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
        return out;
    }

    JsonValue number() {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
        bool is_real = false;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
                is_real = true;
                ++pos_;
            } else {
                break;
            }
        }
        const std::string_view tok = text_.substr(start, pos_ - start);
        if (tok.empty() || tok == "-") fail("bad number");
        if (!is_real) {
            std::int64_t v = 0;
            const auto [p, ec] =
                std::from_chars(tok.data(), tok.data() + tok.size(), v);
            if (ec == std::errc() && p == tok.data() + tok.size()) {
                return JsonValue(v);
            }
        }
        double d = 0.0;
        const auto [p, ec] =
            std::from_chars(tok.data(), tok.data() + tok.size(), d);
        if (ec != std::errc() || p != tok.data() + tok.size()) fail("bad number");
        return JsonValue(d);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

bool JsonValue::as_bool() const {
    if (kind_ != Kind::Bool) type_error("bool", kind_);
    return bool_;
}

std::int64_t JsonValue::as_int() const {
    if (kind_ != Kind::Int) type_error("int", kind_);
    return int_;
}

double JsonValue::as_real() const {
    if (kind_ == Kind::Int) return static_cast<double>(int_);
    if (kind_ != Kind::Real) type_error("number", kind_);
    return real_;
}

const std::string& JsonValue::as_string() const {
    if (kind_ != Kind::String) type_error("string", kind_);
    return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
    if (kind_ != Kind::Array) type_error("array", kind_);
    return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members() const {
    if (kind_ != Kind::Object) type_error("object", kind_);
    return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
    if (kind_ != Kind::Object) return nullptr;
    for (const auto& [k, v] : members_) {
        if (k == key) return &v;
    }
    return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
    const JsonValue* v = find(key);
    if (!v) throw ProtocolError("missing member \"" + std::string(key) + "\"");
    return *v;
}

std::string JsonValue::get_string(std::string_view key,
                                  std::string fallback) const {
    const JsonValue* v = find(key);
    return v ? v->as_string() : std::move(fallback);
}

std::int64_t JsonValue::get_int(std::string_view key,
                                std::int64_t fallback) const {
    const JsonValue* v = find(key);
    return v ? v->as_int() : fallback;
}

double JsonValue::get_real(std::string_view key, double fallback) const {
    const JsonValue* v = find(key);
    return v ? v->as_real() : fallback;
}

JsonValue& JsonValue::set(std::string key, JsonValue value) {
    if (kind_ == Kind::Null) kind_ = Kind::Object;
    if (kind_ != Kind::Object) type_error("object", kind_);
    for (auto& [k, v] : members_) {
        if (k == key) {
            v = std::move(value);
            return *this;
        }
    }
    members_.emplace_back(std::move(key), std::move(value));
    return *this;
}

JsonValue& JsonValue::push(JsonValue value) {
    if (kind_ == Kind::Null) kind_ = Kind::Array;
    if (kind_ != Kind::Array) type_error("array", kind_);
    items_.push_back(std::move(value));
    return *this;
}

void JsonValue::dump_to(std::string& out) const {
    switch (kind_) {
        case Kind::Null: out += "null"; break;
        case Kind::Bool: out += bool_ ? "true" : "false"; break;
        case Kind::Int: out += std::to_string(int_); break;
        case Kind::Real: {
            // Shortest round-trip rendering: deterministic and exact.
            char buf[32];
            const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, real_);
            out.append(buf, ec == std::errc() ? p : buf);
            break;
        }
        case Kind::String: escape_to(string_, out); break;
        case Kind::Array:
            out += '[';
            for (std::size_t i = 0; i < items_.size(); ++i) {
                if (i) out += ',';
                items_[i].dump_to(out);
            }
            out += ']';
            break;
        case Kind::Object:
            out += '{';
            for (std::size_t i = 0; i < members_.size(); ++i) {
                if (i) out += ',';
                escape_to(members_[i].first, out);
                out += ':';
                members_[i].second.dump_to(out);
            }
            out += '}';
            break;
    }
}

std::string JsonValue::dump() const {
    std::string out;
    dump_to(out);
    return out;
}

std::string JsonValue::dump_lines() const {
    std::string out = "{\n";
    const auto& ms = members();
    for (std::size_t i = 0; i < ms.size(); ++i) {
        escape_to(ms[i].first, out);
        out += ": ";
        ms[i].second.dump_to(out);
        out += i + 1 < ms.size() ? ",\n" : "\n";
    }
    out += "}\n";
    return out;
}

JsonValue parse_json(std::string_view text) { return Parser(text).parse(); }

JsonValue make_ok_response() {
    JsonValue v = JsonValue::object();
    v.set("status", "ok");
    return v;
}

JsonValue make_error_response(const std::string& message) {
    JsonValue v = JsonValue::object();
    v.set("status", "error");
    v.set("error", message);
    return v;
}

}  // namespace janus::server
