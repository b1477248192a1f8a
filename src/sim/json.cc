#include "sim/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <sstream>

#include "sim/log.hh"

namespace lacc {

namespace {

/** Parser nesting limit; BENCH_*.json is ~4 levels deep. */
constexpr int kMaxDepth = 128;

void
escapeTo(std::ostream &os, const std::string &s)
{
    os << '"';
    for (const char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\b': os << "\\b"; break;
          case '\f': os << "\\f"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned char>(c));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

/** Shortest round-trip double formatting (JSON has no NaN/Inf: null). */
void
writeDouble(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    os.write(buf, r.ptr - buf);
}

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string err;

    bool
    fail(const std::string &what)
    {
        if (err.empty())
            err = what + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size()) {
            const char c = text[pos];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos;
        }
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != c)
            return false;
        ++pos;
        return true;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text.compare(pos, n, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos += n;
        return true;
    }

    bool
    parseHex4(std::uint32_t &out)
    {
        if (pos + 4 > text.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text[pos++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<std::uint32_t>(c - 'A' + 10);
            else
                return fail("bad \\u escape digit");
        }
        return true;
    }

    static void
    appendUtf8(std::string &s, std::uint32_t cp)
    {
        if (cp < 0x80) {
            s += static_cast<char>(cp);
        } else if (cp < 0x800) {
            s += static_cast<char>(0xC0 | (cp >> 6));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            s += static_cast<char>(0xE0 | (cp >> 12));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            s += static_cast<char>(0xF0 | (cp >> 18));
            s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        out.clear();
        while (pos < text.size()) {
            const char c = text[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out += c;
                ++pos;
                continue;
            }
            ++pos;
            if (pos >= text.size())
                return fail("truncated escape");
            const char e = text[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                std::uint32_t cp = 0;
                if (!parseHex4(cp))
                    return false;
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // Surrogate pair.
                    if (pos + 1 >= text.size() || text[pos] != '\\' ||
                        text[pos + 1] != 'u')
                        return fail("unpaired surrogate");
                    pos += 2;
                    std::uint32_t lo = 0;
                    if (!parseHex4(lo))
                        return false;
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        return fail("bad low surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Json &out)
    {
        const std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        bool isDouble = false;
        while (pos < text.size()) {
            const char c = text[pos];
            if (c >= '0' && c <= '9') {
                ++pos;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                isDouble = isDouble || c == '.' || c == 'e' || c == 'E';
                ++pos;
            } else {
                break;
            }
        }
        const std::string tok = text.substr(start, pos - start);
        if (tok.empty() || tok == "-")
            return fail("expected number");
        if (!isDouble) {
            if (tok[0] == '-') {
                std::int64_t v = 0;
                const auto r =
                    std::from_chars(tok.data(), tok.data() + tok.size(), v);
                if (r.ec == std::errc() && r.ptr == tok.data() + tok.size()) {
                    out = Json(static_cast<long long>(v));
                    return true;
                }
            } else {
                std::uint64_t v = 0;
                const auto r =
                    std::from_chars(tok.data(), tok.data() + tok.size(), v);
                if (r.ec == std::errc() && r.ptr == tok.data() + tok.size()) {
                    out = Json(static_cast<unsigned long long>(v));
                    return true;
                }
            }
            // Out-of-range integers fall back to double.
        }
        double d = 0.0;
        const auto r =
            std::from_chars(tok.data(), tok.data() + tok.size(), d);
        if (r.ec != std::errc() || r.ptr != tok.data() + tok.size())
            return fail("malformed number '" + tok + "'");
        out = Json(d);
        return true;
    }

    bool
    parseValue(Json &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == 'n') {
            out = Json();
            return literal("null");
        }
        if (c == 't') {
            out = Json(true);
            return literal("true");
        }
        if (c == 'f') {
            out = Json(false);
            return literal("false");
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = Json(std::move(s));
            return true;
        }
        if (c == '[') {
            ++pos;
            out = Json::array();
            skipWs();
            if (consume(']'))
                return true;
            while (true) {
                Json elem;
                if (!parseValue(elem, depth + 1))
                    return false;
                out.push(std::move(elem));
                if (consume(','))
                    continue;
                if (consume(']'))
                    return true;
                return fail("expected ',' or ']'");
            }
        }
        if (c == '{') {
            ++pos;
            out = Json::object();
            skipWs();
            if (consume('}'))
                return true;
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                if (!consume(':'))
                    return fail("expected ':'");
                Json val;
                if (!parseValue(val, depth + 1))
                    return false;
                out[key] = std::move(val);
                if (consume(','))
                    continue;
                if (consume('}'))
                    return true;
                return fail("expected ',' or '}'");
            }
        }
        return parseNumber(out);
    }
};

} // namespace

Json
Json::array()
{
    Json j;
    j.type_ = Type::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    return j;
}

bool
Json::asBool() const
{
    if (type_ != Type::Bool)
        panic("Json::asBool on non-bool (type %d)",
              static_cast<int>(type_));
    return bool_;
}

std::int64_t
Json::asInt() const
{
    if (type_ == Type::Int)
        return int_;
    if (type_ == Type::Uint) {
        if (uint_ > static_cast<std::uint64_t>(
                        std::numeric_limits<std::int64_t>::max()))
            panic("Json::asInt overflow (%llu)",
                  static_cast<unsigned long long>(uint_));
        return static_cast<std::int64_t>(uint_);
    }
    panic("Json::asInt on non-integer (type %d)",
          static_cast<int>(type_));
}

std::uint64_t
Json::asUint() const
{
    if (type_ == Type::Uint)
        return uint_;
    if (type_ == Type::Int) {
        if (int_ < 0)
            panic("Json::asUint on negative (%lld)",
                  static_cast<long long>(int_));
        return static_cast<std::uint64_t>(int_);
    }
    panic("Json::asUint on non-integer (type %d)",
          static_cast<int>(type_));
}

double
Json::asDouble() const
{
    switch (type_) {
      case Type::Int: return static_cast<double>(int_);
      case Type::Uint: return static_cast<double>(uint_);
      case Type::Double: return dbl_;
      default:
        panic("Json::asDouble on non-number (type %d)",
              static_cast<int>(type_));
    }
}

const std::string &
Json::asString() const
{
    if (type_ != Type::String)
        panic("Json::asString on non-string (type %d)",
              static_cast<int>(type_));
    return str_;
}

std::size_t
Json::size() const
{
    if (type_ == Type::Array)
        return arr_.size();
    if (type_ == Type::Object)
        return obj_.size();
    return 0;
}

Json &
Json::push(Json v)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    if (type_ != Type::Array)
        panic("Json::push on non-array (type %d)",
              static_cast<int>(type_));
    arr_.push_back(std::move(v));
    return arr_.back();
}

const Json &
Json::at(std::size_t i) const
{
    if (type_ != Type::Array || i >= arr_.size())
        panic("Json::at(%zu) out of range (size %zu)", i, arr_.size());
    return arr_[i];
}

Json &
Json::operator[](const std::string &key)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    if (type_ != Type::Object)
        panic("Json::operator[] on non-object (type %d)",
              static_cast<int>(type_));
    for (auto &kv : obj_)
        if (kv.first == key)
            return kv.second;
    obj_.emplace_back(key, Json());
    return obj_.back().second;
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &kv : obj_)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

const Json &
Json::at(const std::string &key) const
{
    const Json *p = find(key);
    if (p == nullptr)
        panic("Json::at missing key '%s'", key.c_str());
    return *p;
}

const std::vector<std::pair<std::string, Json>> &
Json::items() const
{
    if (type_ != Type::Object)
        panic("Json::items on non-object (type %d)",
              static_cast<int>(type_));
    return obj_;
}

const std::vector<Json> &
Json::elements() const
{
    if (type_ != Type::Array)
        panic("Json::elements on non-array (type %d)",
              static_cast<int>(type_));
    return arr_;
}

void
Json::writeIndented(std::ostream &os, int indent, int depth) const
{
    const auto newline = [&](int d) {
        if (indent <= 0)
            return;
        os << '\n';
        for (int i = 0; i < d * indent; ++i)
            os << ' ';
    };
    switch (type_) {
      case Type::Null:
        os << "null";
        break;
      case Type::Bool:
        os << (bool_ ? "true" : "false");
        break;
      case Type::Int:
        os << int_;
        break;
      case Type::Uint:
        os << uint_;
        break;
      case Type::Double:
        writeDouble(os, dbl_);
        break;
      case Type::String:
        escapeTo(os, str_);
        break;
      case Type::Array:
        if (arr_.empty()) {
            os << "[]";
            break;
        }
        os << '[';
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i > 0)
                os << ',';
            newline(depth + 1);
            arr_[i].writeIndented(os, indent, depth + 1);
        }
        newline(depth);
        os << ']';
        break;
      case Type::Object:
        if (obj_.empty()) {
            os << "{}";
            break;
        }
        os << '{';
        for (std::size_t i = 0; i < obj_.size(); ++i) {
            if (i > 0)
                os << ',';
            newline(depth + 1);
            escapeTo(os, obj_[i].first);
            os << (indent > 0 ? ": " : ":");
            obj_[i].second.writeIndented(os, indent, depth + 1);
        }
        newline(depth);
        os << '}';
        break;
    }
}

void
Json::write(std::ostream &os, int indent) const
{
    writeIndented(os, indent, 0);
}

std::string
Json::dump(int indent) const
{
    std::ostringstream os;
    write(os, indent);
    return os.str();
}

Json
Json::parse(const std::string &text, std::string *error)
{
    Parser p{text, 0, {}};
    Json out;
    if (!p.parseValue(out, 0)) {
        if (error != nullptr)
            *error = p.err;
        return Json();
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (error != nullptr)
            *error = "trailing garbage at offset " +
                     std::to_string(p.pos);
        return Json();
    }
    if (error != nullptr)
        error->clear();
    return out;
}

bool
Json::operator==(const Json &o) const
{
    if (isNumber() && o.isNumber()) {
        // Exact integers compare exactly even across Int/Uint.
        const bool li = type_ != Type::Double;
        const bool ri = o.type_ != Type::Double;
        if (li && ri) {
            if (type_ == Type::Int && int_ < 0)
                return o.type_ == Type::Int && o.int_ == int_;
            if (o.type_ == Type::Int && o.int_ < 0)
                return false;
            return asUint() == o.asUint();
        }
        return asDouble() == o.asDouble();
    }
    if (type_ != o.type_)
        return false;
    switch (type_) {
      case Type::Null: return true;
      case Type::Bool: return bool_ == o.bool_;
      case Type::String: return str_ == o.str_;
      case Type::Array: return arr_ == o.arr_;
      case Type::Object: return obj_ == o.obj_;
      default: return false; // numbers handled above
    }
}

} // namespace lacc
