#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace rmwp::obs {

void append_json_string(std::string& out, std::string_view s) {
    out += '"';
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof buffer, "\\u%04x",
                              static_cast<unsigned>(static_cast<unsigned char>(c)));
                out += buffer;
            } else {
                out += c;
            }
            break;
        }
    }
    out += '"';
}

void append_json_number(std::string& out, double d) {
    if (!std::isfinite(d)) {
        out += "null";
        return;
    }
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", d);
    out += buffer;
}

double JsonValue::as_number() const {
    if (const auto* u = std::get_if<std::uint64_t>(&value_)) return static_cast<double>(*u);
    if (const auto* i = std::get_if<std::int64_t>(&value_)) return static_cast<double>(*i);
    return std::get<double>(value_);
}

JsonValue& JsonValue::set(std::string key, JsonValue value) & {
    std::get<Object>(value_).emplace_back(std::move(key), std::move(value));
    return *this;
}

JsonValue& JsonValue::push(JsonValue value) {
    std::get<Array>(value_).push_back(std::move(value));
    return *this;
}

std::string JsonValue::dump(int indent) const {
    std::string out;
    dump_to(out, indent, 0);
    return out;
}

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
    const auto newline = [&](int level) {
        if (indent < 0) return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(level), ' ');
    };
    if (const auto* b = std::get_if<bool>(&value_)) {
        out += *b ? "true" : "false";
    } else if (const auto* d = std::get_if<double>(&value_)) {
        append_json_number(out, *d);
    } else if (const auto* u = std::get_if<std::uint64_t>(&value_)) {
        out += std::to_string(*u);
    } else if (const auto* i = std::get_if<std::int64_t>(&value_)) {
        out += std::to_string(*i);
    } else if (const auto* s = std::get_if<std::string>(&value_)) {
        append_json_string(out, *s);
    } else if (const auto* array = std::get_if<Array>(&value_)) {
        out += '[';
        for (std::size_t k = 0; k < array->size(); ++k) {
            if (k > 0) out += ',';
            newline(depth + 1);
            (*array)[k].dump_to(out, indent, depth + 1);
        }
        if (!array->empty()) newline(depth);
        out += ']';
    } else if (const auto* object = std::get_if<Object>(&value_)) {
        out += '{';
        for (std::size_t k = 0; k < object->size(); ++k) {
            if (k > 0) out += ',';
            newline(depth + 1);
            append_json_string(out, (*object)[k].first);
            out += indent < 0 ? ":" : ": ";
            (*object)[k].second.dump_to(out, indent, depth + 1);
        }
        if (!object->empty()) newline(depth);
        out += '}';
    } else {
        out += "null";
    }
}

namespace {

/// Recursive-descent parser with explicit depth limiting (fuzzed inputs
/// must exhaust neither the stack nor memory before hitting an error).
class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue parse_document() {
        skip_whitespace();
        JsonValue value = parse_value(0);
        skip_whitespace();
        if (pos_ != text_.size()) fail("trailing characters after JSON value");
        return value;
    }

private:
    static constexpr std::size_t kMaxDepth = 64;

    [[noreturn]] void fail(const std::string& message) const {
        throw json_error(message, line_, column_);
    }

    [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }

    [[nodiscard]] char peek() const {
        if (at_end()) fail("unexpected end of input");
        return text_[pos_];
    }

    char take() {
        const char c = peek();
        ++pos_;
        if (c == '\n') {
            ++line_;
            column_ = 1;
        } else {
            ++column_;
        }
        return c;
    }

    void expect(char c) {
        if (at_end() || text_[pos_] != c)
            fail(std::string("expected '") + c + "'");
        (void)take();
    }

    void skip_whitespace() {
        while (!at_end()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            (void)take();
        }
    }

    JsonValue parse_value(std::size_t depth) {
        if (depth > kMaxDepth) fail("nesting too deep");
        if (at_end()) fail("unexpected end of input");
        switch (peek()) {
        case '{': return parse_object(depth);
        case '[': return parse_array(depth);
        case '"': return JsonValue(parse_string());
        case 't': return parse_keyword("true", JsonValue(true));
        case 'f': return parse_keyword("false", JsonValue(false));
        case 'n': return parse_keyword("null", JsonValue(nullptr));
        default: return parse_number();
        }
    }

    JsonValue parse_keyword(const char* keyword, JsonValue value) {
        for (const char* c = keyword; *c != '\0'; ++c)
            if (at_end() || take() != *c) fail(std::string("invalid literal, expected ") + keyword);
        return value;
    }

    [[nodiscard]] bool at_digit() const noexcept {
        return !at_end() && text_[pos_] >= '0' && text_[pos_] <= '9';
    }

    /// RFC 8259 number: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
    JsonValue parse_number() {
        const std::size_t start = pos_;
        const bool negative = !at_end() && text_[pos_] == '-';
        if (negative) (void)take();
        const auto digits = [&] {
            std::size_t count = 0;
            for (; at_digit(); ++count) (void)take();
            return count;
        };
        if (!at_digit()) fail("invalid number");
        if (take() == '0' && at_digit()) fail("invalid number: leading zero");
        (void)digits();
        bool integral = true;
        if (!at_end() && text_[pos_] == '.') {
            (void)take();
            integral = false;
            if (digits() == 0) fail("invalid number: no digit after '.'");
        }
        if (!at_end() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            (void)take();
            integral = false;
            if (!at_end() && (text_[pos_] == '+' || text_[pos_] == '-')) (void)take();
            if (digits() == 0) fail("invalid number: no digit in exponent");
        }
        const std::string token(text_.substr(start, pos_ - start));
        const char* const first = token.data();
        const char* const last = first + token.size();
        // Integers stay exact; "-0" and out-of-range ones fall through to
        // double (the former keeps its sign).
        if (integral && token != "-0") {
            if (negative) {
                std::int64_t value = 0;
                if (const auto [end, ec] = std::from_chars(first, last, value);
                    ec == std::errc() && end == last)
                    return JsonValue(value);
            } else {
                std::uint64_t value = 0;
                if (const auto [end, ec] = std::from_chars(first, last, value);
                    ec == std::errc() && end == last)
                    return JsonValue(value);
            }
        }
        // Underflow rounds to the nearest subnormal (or zero), as every
        // written subnormal must read back; only overflow is unrepresentable.
        char* end = nullptr;
        const double value = std::strtod(first, &end);
        if (end != last || !std::isfinite(value))
            fail("unrepresentable number '" + token + "'");
        return JsonValue(value);
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (at_end()) fail("unterminated string");
            const char c = take();
            if (c == '"') return out;
            if (static_cast<unsigned char>(c) < 0x20) fail("unescaped control character");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (at_end()) fail("unterminated escape");
            const char escape = take();
            switch (escape) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                unsigned code = 0;
                for (int k = 0; k < 4; ++k) {
                    if (at_end()) fail("truncated \\u escape");
                    const char h = take();
                    code <<= 4;
                    if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
                    else fail("invalid \\u escape digit");
                }
                // The artefacts only escape control characters; decode the
                // BMP code point as UTF-8 without surrogate-pair support.
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
            }
            default: fail("unknown escape sequence");
            }
        }
    }

    JsonValue parse_array(std::size_t depth) {
        expect('[');
        JsonValue::Array items;
        skip_whitespace();
        if (!at_end() && peek() == ']') {
            (void)take();
            return JsonValue(std::move(items));
        }
        while (true) {
            skip_whitespace();
            items.push_back(parse_value(depth + 1));
            skip_whitespace();
            const char c = take();
            if (c == ']') return JsonValue(std::move(items));
            if (c != ',') fail("expected ',' or ']' in array");
        }
    }

    JsonValue parse_object(std::size_t depth) {
        expect('{');
        JsonValue::Object members;
        skip_whitespace();
        if (!at_end() && peek() == '}') {
            (void)take();
            return JsonValue(std::move(members));
        }
        while (true) {
            skip_whitespace();
            std::string key = parse_string();
            skip_whitespace();
            expect(':');
            skip_whitespace();
            members.emplace_back(std::move(key), parse_value(depth + 1));
            skip_whitespace();
            const char c = take();
            if (c == '}') return JsonValue(std::move(members));
            if (c != ',') fail("expected ',' or '}' in object");
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t line_ = 1;
    std::size_t column_ = 1;
};

} // namespace

JsonValue json_parse(std::string_view text) { return Parser(text).parse_document(); }

} // namespace rmwp::obs
