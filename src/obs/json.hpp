// The observability layer's one JSON module: a value type that both parses
// and writes, plus the string escape and number formatter every JSON
// writer in the repository goes through — the exporters' self-check
// ("parse back what you wrote"), the JSONL event reader, the trace index,
// `--stats-json`, the BENCH artefacts, and the fuzz-ish negative tests.
// No external dependency; parse errors are json_error exceptions carrying
// 1-based line:column positions so a truncated or corrupted artefact points
// at the offending byte.
#pragma once

#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace rmwp::obs {

class json_error : public std::runtime_error {
public:
    json_error(std::string message, std::size_t line, std::size_t column)
        : std::runtime_error("json error at " + std::to_string(line) + ":" +
                             std::to_string(column) + ": " + message),
          line_(line),
          column_(column) {}

    [[nodiscard]] std::size_t line() const noexcept { return line_; }
    [[nodiscard]] std::size_t column() const noexcept { return column_; }

private:
    std::size_t line_;
    std::size_t column_;
};

/// Append `s` as a quoted JSON string: `"` and `\` are escaped, newline and
/// tab use their short forms, every other control character is `\u00XX`.
void append_json_string(std::string& out, std::string_view s);

/// Append `d` in round-trip form (`%.17g`); NaN and infinities have no JSON
/// spelling and are written as `null`.
void append_json_number(std::string& out, double d);

/// JSON value.  Integers are kept exactly — `uint64` when non-negative,
/// `int64` when negative (tokens without fraction or exponent, when
/// parsing) — and every other number is a double; a double written with an
/// integral value therefore parses back as an integer of the same value.
/// Object member order is preserved, so written documents diff cleanly
/// between runs.
class JsonValue {
public:
    using Array = std::vector<JsonValue>;
    using Object = std::vector<std::pair<std::string, JsonValue>>;

    JsonValue() = default;
    JsonValue(std::nullptr_t) {}
    JsonValue(bool b) : value_(b) {}
    JsonValue(double d) : value_(d) {}
    /// Integers take the alternative the parser would give them back.
    template <std::integral T>
        requires(!std::same_as<T, bool>)
    JsonValue(T i) : value_(static_cast<std::uint64_t>(i)) {
        if constexpr (std::is_signed_v<T>)
            if (i < 0) value_ = static_cast<std::int64_t>(i);
    }
    JsonValue(const char* s) : value_(std::string(s)) {}
    JsonValue(std::string s) : value_(std::move(s)) {}
    JsonValue(Array a) : value_(std::move(a)) {}
    JsonValue(Object o) : value_(std::move(o)) {}

    [[nodiscard]] static JsonValue array() { return JsonValue(Array{}); }
    [[nodiscard]] static JsonValue object() { return JsonValue(Object{}); }

    /// Append a member to an object (no de-duplication) / an item to an
    /// array.  Chainable; on a temporary the chain moves, never copies.
    /// (Out of line: inlined, gcc 12 misreports the variant moves as
    /// -Wmaybe-uninitialized.)
    JsonValue& set(std::string key, JsonValue value) &;
    JsonValue&& set(std::string key, JsonValue value) && {
        return std::move(set(std::move(key), std::move(value)));
    }
    JsonValue& push(JsonValue value);

    [[nodiscard]] bool is_null() const noexcept {
        return std::holds_alternative<std::nullptr_t>(value_);
    }
    [[nodiscard]] bool is_bool() const noexcept { return std::holds_alternative<bool>(value_); }
    /// Any numeric alternative (double, uint64, int64).
    [[nodiscard]] bool is_number() const noexcept {
        return std::holds_alternative<double>(value_) ||
               std::holds_alternative<std::uint64_t>(value_) ||
               std::holds_alternative<std::int64_t>(value_);
    }
    [[nodiscard]] bool is_uint64() const noexcept {
        return std::holds_alternative<std::uint64_t>(value_);
    }
    [[nodiscard]] bool is_string() const noexcept {
        return std::holds_alternative<std::string>(value_);
    }
    [[nodiscard]] bool is_array() const noexcept { return std::holds_alternative<Array>(value_); }
    [[nodiscard]] bool is_object() const noexcept {
        return std::holds_alternative<Object>(value_);
    }

    [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
    /// Any numeric alternative, converted to double.
    [[nodiscard]] double as_number() const;
    [[nodiscard]] std::uint64_t as_uint64() const { return std::get<std::uint64_t>(value_); }
    [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(value_); }
    [[nodiscard]] const Array& as_array() const { return std::get<Array>(value_); }
    [[nodiscard]] const Object& as_object() const { return std::get<Object>(value_); }

    /// First member with the given key, or nullptr.
    [[nodiscard]] const JsonValue* find(std::string_view key) const {
        for (const auto& [name, value] : as_object())
            if (name == key) return &value;
        return nullptr;
    }

    /// Serialise.  `indent < 0` writes compact JSON with no whitespace;
    /// otherwise every array item and object member goes on its own line,
    /// indented `indent` spaces per level, with `": "` after keys.
    [[nodiscard]] std::string dump(int indent = -1) const;

private:
    void dump_to(std::string& out, int indent, int depth) const;

    std::variant<std::nullptr_t, bool, double, std::uint64_t, std::int64_t, std::string, Array,
                 Object>
        value_{nullptr};
};

/// Parse exactly one JSON document under the RFC 8259 grammar; trailing
/// non-whitespace is an error.  Throws json_error (with line:column) on any
/// malformation.
[[nodiscard]] JsonValue json_parse(std::string_view text);

} // namespace rmwp::obs
