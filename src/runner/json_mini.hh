/**
 * @file
 * Minimal strict JSON reader for the runner's machine-to-machine
 * paths: parsing remote workers' Result reports and result cache
 * entries back into ExperimentResults. The repo deliberately
 * has no external JSON dependency; this parser supports exactly the
 * documents the runner itself emits (objects, arrays, strings with
 * the reporter's escape set, numbers, booleans, null) and throws
 * std::runtime_error on anything malformed — a corrupt cache entry
 * must surface as a cache miss, never as a half-parsed result.
 *
 * Numbers keep their raw text alongside the parsed double, so u64
 * counters (write counts, wear) round-trip exactly instead of going
 * through a double.
 */

#ifndef WLCRC_RUNNER_JSON_MINI_HH
#define WLCRC_RUNNER_JSON_MINI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wlcrc::runner
{

/** One parsed JSON value (tree-owning, immutable after parse). */
struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Type type = Type::Null;
    bool boolean = false;
    std::string text; //!< string value, or a number's raw token
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool has(const std::string &key) const
    {
        return type == Type::Object && object.count(key) > 0;
    }

    /** @throws std::runtime_error if absent or not an object. */
    const JsonValue &at(const std::string &key) const;

    /** @throws std::runtime_error on type/representation mismatch. */
    const std::string &asString() const;
    bool asBool() const;
    double asDouble() const;
    uint64_t asU64() const;
};

/**
 * Parse @p text as one JSON document (trailing garbage rejected).
 * @throws std::runtime_error with offset context on any error.
 */
JsonValue parseJson(const std::string &text);

} // namespace wlcrc::runner

#endif // WLCRC_RUNNER_JSON_MINI_HH
