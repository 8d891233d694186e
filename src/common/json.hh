/**
 * @file
 * Shared deterministic JSON formatting helpers. Every emitter in the
 * tree (the sweep result sinks, the telemetry NDJSON/Chrome-trace
 * writers, the perf benchmark) must produce byte-identical output for
 * identical inputs across hosts and worker counts, so all of them
 * format through these fixed-width, locale-independent primitives
 * instead of ostream state.
 */

#ifndef DCRA_SMT_COMMON_JSON_HH
#define DCRA_SMT_COMMON_JSON_HH

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

namespace smt {

/** Fixed-precision double: "%.*f", never locale- or host-varying. */
inline std::string
fmtDouble(double v, int prec = 6)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

/**
 * Shortest exactly-round-tripping double: %.17g always parses back
 * (strtod) to the bit-identical value. Used by the sweep journal,
 * whose replayed results must re-render byte-identically through the
 * fixed-precision sink formats above.
 */
inline std::string
fmtDoubleExact(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

inline std::string
fmtU64(std::uint64_t v)
{
    return std::to_string(v);
}

/** Hash as a hex string: u64 does not fit a JSON double exactly. */
inline std::string
hexU64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * @name Record parsing
 *
 * A small recursive-descent JSON reader for the documents this tree
 * itself emits (journal records, sweep JSON). Numbers keep their raw
 * source token, so u64 counters and %.17g doubles both convert
 * exactly on demand instead of being squeezed through one double.
 */
/** @{ */

struct JsonValue
{
    enum Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Null;
    bool boolean = false;
    /** String value, or the raw numeric token for Number. */
    std::string str;
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> obj;

    /** Object member by key; nullptr when absent or not an object. */
    const JsonValue *
    find(const char *key) const
    {
        if (kind != Object)
            return nullptr;
        for (const auto &kv : obj) {
            if (kv.first == key)
                return &kv.second;
        }
        return nullptr;
    }

    double
    asDouble() const
    {
        return kind == Number ? std::strtod(str.c_str(), nullptr)
                              : 0.0;
    }

    std::uint64_t
    asU64() const
    {
        return kind == Number
            ? std::strtoull(str.c_str(), nullptr, 10)
            : 0;
    }

    std::int64_t
    asI64() const
    {
        return kind == Number
            ? std::strtoll(str.c_str(), nullptr, 10)
            : 0;
    }

    /**
     * The value as a T, when it is a plain decimal integer that fits
     * T: digits with no fraction, exponent or '+', and a '-' only for
     * a signed T. Anything else (-1 for a u64, 1.5, 1e3, 2^64) returns
     * false, where asU64() would quietly read it as another value.
     */
    template <typename T>
    bool
    toInteger(T &out) const
    {
        const char *end = str.data() + str.size();
        T v{};
        const auto [ptr, ec] = std::from_chars(str.data(), end, v);
        if (kind != Number || ec != std::errc() || ptr != end)
            return false;
        out = v;
        return true;
    }
};

namespace json_detail {

inline void
skipWs(const char *&p, const char *end)
{
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                       *p == '\r'))
        ++p;
}

inline bool parseValue(const char *&p, const char *end,
                       JsonValue &out, int depth);

inline bool
parseString(const char *&p, const char *end, std::string &out)
{
    if (p >= end || *p != '"')
        return false;
    ++p;
    out.clear();
    while (p < end && *p != '"') {
        if (*p == '\\') {
            if (++p >= end)
                return false;
            switch (*p) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                  if (end - p < 5)
                      return false;
                  unsigned cp = 0;
                  for (int i = 1; i <= 4; ++i) {
                      const char c = p[i];
                      cp <<= 4;
                      if (c >= '0' && c <= '9')
                          cp |= static_cast<unsigned>(c - '0');
                      else if (c >= 'a' && c <= 'f')
                          cp |= static_cast<unsigned>(c - 'a' + 10);
                      else if (c >= 'A' && c <= 'F')
                          cp |= static_cast<unsigned>(c - 'A' + 10);
                      else
                          return false;
                  }
                  // Our own emitters only escape control chars, so
                  // plain one-byte decoding covers everything this
                  // parser is asked to read back.
                  if (cp > 0xff)
                      return false;
                  out += static_cast<char>(cp);
                  p += 4;
                  break;
              }
              default: return false;
            }
            ++p;
        } else {
            out += *p++;
        }
    }
    if (p >= end)
        return false;
    ++p; // closing quote
    return true;
}

inline bool
parseValue(const char *&p, const char *end, JsonValue &out, int depth)
{
    if (depth > 64)
        return false;
    skipWs(p, end);
    if (p >= end)
        return false;
    switch (*p) {
      case '{': {
        out.kind = JsonValue::Object;
        ++p;
        skipWs(p, end);
        if (p < end && *p == '}') {
            ++p;
            return true;
        }
        for (;;) {
            skipWs(p, end);
            std::string key;
            if (!parseString(p, end, key))
                return false;
            skipWs(p, end);
            if (p >= end || *p != ':')
                return false;
            ++p;
            JsonValue v;
            if (!parseValue(p, end, v, depth + 1))
                return false;
            out.obj.emplace_back(std::move(key), std::move(v));
            skipWs(p, end);
            if (p >= end)
                return false;
            if (*p == ',') {
                ++p;
                continue;
            }
            if (*p == '}') {
                ++p;
                return true;
            }
            return false;
        }
      }
      case '[': {
        out.kind = JsonValue::Array;
        ++p;
        skipWs(p, end);
        if (p < end && *p == ']') {
            ++p;
            return true;
        }
        for (;;) {
            JsonValue v;
            if (!parseValue(p, end, v, depth + 1))
                return false;
            out.arr.push_back(std::move(v));
            skipWs(p, end);
            if (p >= end)
                return false;
            if (*p == ',') {
                ++p;
                continue;
            }
            if (*p == ']') {
                ++p;
                return true;
            }
            return false;
        }
      }
      case '"':
        out.kind = JsonValue::String;
        return parseString(p, end, out.str);
      case 't':
        if (end - p < 4 || std::string(p, 4) != "true")
            return false;
        out.kind = JsonValue::Bool;
        out.boolean = true;
        p += 4;
        return true;
      case 'f':
        if (end - p < 5 || std::string(p, 5) != "false")
            return false;
        out.kind = JsonValue::Bool;
        out.boolean = false;
        p += 5;
        return true;
      case 'n':
        if (end - p < 4 || std::string(p, 4) != "null")
            return false;
        out.kind = JsonValue::Null;
        p += 4;
        return true;
      default: {
        const char *start = p;
        if (*p == '-' || *p == '+')
            ++p;
        bool digits = false;
        while (p < end &&
               ((*p >= '0' && *p <= '9') || *p == '.' || *p == 'e' ||
                *p == 'E' || *p == '-' || *p == '+')) {
            digits = digits || (*p >= '0' && *p <= '9');
            ++p;
        }
        if (!digits)
            return false;
        out.kind = JsonValue::Number;
        out.str.assign(start, static_cast<std::size_t>(p - start));
        return true;
      }
    }
}

} // namespace json_detail

/**
 * Parse one JSON document. Trailing whitespace is allowed, trailing
 * garbage is not. Returns false on malformed input.
 */
inline bool
parseJson(const std::string &text, JsonValue &out)
{
    const char *p = text.data();
    const char *end = p + text.size();
    out = JsonValue();
    if (!json_detail::parseValue(p, end, out, 0))
        return false;
    json_detail::skipWs(p, end);
    return p == end;
}

/** @} */

} // namespace smt

#endif // DCRA_SMT_COMMON_JSON_HH
