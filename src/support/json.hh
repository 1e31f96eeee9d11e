/**
 * @file
 * Minimal JSON document model for the serializable request/config
 * surface (EvalRequest, SimConfig, sweep grid specs, BENCH
 * documents). Deliberately small: parse into an immutable JsonValue
 * tree, navigate with typed accessors that throw FatalError with the
 * offending key path, and re-serialize deterministically.
 *
 * Numbers keep their lexical class: an integer literal (no '.', no
 * exponent) is an Int, anything else a Double. That distinction is
 * what lets StatsSnapshot counters (integers) and timers (doubles)
 * survive a parse/re-emit round trip bit-for-bit — the same contract
 * StatsSnapshot::fromJson relies on.
 *
 * Object members preserve source order (grid-spec axis order is
 * semantic: the first listed axis varies slowest in cell expansion).
 */

#ifndef PREDILP_SUPPORT_JSON_HH
#define PREDILP_SUPPORT_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace predilp
{

/** One parsed JSON value; see file comment. */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Int,
        Double,
        String,
        Array,
        Object,
    };

    JsonValue() = default;

    /** Parse @p text (one complete document; trailing junk throws). */
    static JsonValue parse(const std::string &text);

    Kind kind() const { return kind_; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isNumber() const
    {
        return kind_ == Kind::Int || kind_ == Kind::Double;
    }

    /** @return the bool payload; throws FatalError on other kinds. */
    bool asBool() const;

    /** @return the integer payload; a Double throws (lossy). */
    std::int64_t asInt() const;

    /** @return Int or Double payload widened to double. */
    double asDouble() const;

    const std::string &asString() const;

    /** Array elements, in order. Throws unless isArray(). */
    const std::vector<JsonValue> &items() const;

    /** Object members in source order. Throws unless isObject(). */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

    /** Member lookup; nullptr when absent. Throws unless object. */
    const JsonValue *find(const std::string &key) const;

    /** Member lookup; throws FatalError naming @p key when absent. */
    const JsonValue &at(const std::string &key) const;

    /**
     * Re-serialize. Deterministic: member order, spacing, and number
     * formatting are fixed, and parse(dump()) == the original tree.
     */
    std::string dump() const;

    // --- construction (for emitters/tests) ---
    static JsonValue makeBool(bool v);
    static JsonValue makeInt(std::int64_t v);
    static JsonValue makeDouble(double v);
    static JsonValue makeString(std::string v);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue
    makeObject(std::vector<std::pair<std::string, JsonValue>> members);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/** JSON-escape @p s (quotes not included). */
std::string jsonEscape(const std::string &s);

/**
 * Format @p value so it parses back to the identical double and is
 * lexically classified as a Double (always carries '.' or an
 * exponent) — the same convention as StatsSnapshot::toJson.
 */
std::string jsonDouble(double value);

} // namespace predilp

#endif // PREDILP_SUPPORT_JSON_HH
