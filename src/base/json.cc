#include "base/json.hh"

#include <cctype>
#include <cstdio>

#include "base/faultinject.hh"
#include "base/status.hh"
#include "base/strutil.hh"

namespace lkmm::json
{

namespace
{

[[noreturn]] void
typeError(const char *wanted)
{
    throw StatusError(Status(StatusCode::InvalidArgument,
                             std::string("json value is not ") + wanted));
}

} // namespace

void
appendEscaped(std::string &out, std::string_view s)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

namespace
{

void serializeInto(const Value &v, std::string &out, int indent, int depth);

void
appendIndent(std::string &out, int indent, int depth)
{
    if (indent < 0)
        return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
}

void
serializeInto(const Value &v, std::string &out, int indent, int depth)
{
    if (v.isNull()) {
        out += "null";
    } else if (v.isBool()) {
        out += v.asBool() ? "true" : "false";
    } else if (v.isInt()) {
        out += std::to_string(v.asInt());
    } else if (v.isDouble()) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v.asDouble());
        out += buf;
    } else if (v.isString()) {
        appendEscaped(out, v.asString());
    } else if (v.isArray()) {
        const Array &a = v.asArray();
        out += '[';
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (i)
                out += ',';
            appendIndent(out, indent, depth + 1);
            serializeInto(a[i], out, indent, depth + 1);
        }
        if (!a.empty())
            appendIndent(out, indent, depth);
        out += ']';
    } else {
        const Object &o = v.asObject();
        out += '{';
        bool first = true;
        for (const auto &[key, val] : o) {
            if (!first)
                out += ',';
            first = false;
            appendIndent(out, indent, depth + 1);
            appendEscaped(out, key);
            out += ':';
            if (indent >= 0)
                out += ' ';
            serializeInto(val, out, indent, depth + 1);
        }
        if (!o.empty())
            appendIndent(out, indent, depth);
        out += '}';
    }
}

/** Recursive-descent parser over a byte range. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Value
    parseDocument()
    {
        Value v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing data after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        throw StatusError(Status(
            StatusCode::ParseError,
            format("json: %s at byte %zu", what.c_str(), pos_)));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(format("expected '%c'", c));
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        std::size_t n = std::string(lit).size();
        if (text_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Value
    parseValue()
    {
        skipWs();
        // Depth guard: journal records are shallow; a deeply nested
        // document is hostile input, not data.
        if (++depth_ > 256)
            fail("nesting too deep");
        Value v = parseValueInner();
        --depth_;
        return v;
    }

    Value
    parseValueInner()
    {
        char c = peek();
        switch (c) {
          case 'n':
            if (!consumeLiteral("null"))
                fail("bad literal");
            return Value(nullptr);
          case 't':
            if (!consumeLiteral("true"))
                fail("bad literal");
            return Value(true);
          case 'f':
            if (!consumeLiteral("false"))
                fail("bad literal");
            return Value(false);
          case '"':
            return Value(parseString());
          case '[':
            return parseArray();
          case '{':
            return parseObject();
          default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber();
            fail("unexpected character");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': out += parseUnicodeEscape(); break;
              default: fail("bad escape");
            }
        }
    }

    std::string
    parseUnicodeEscape()
    {
        unsigned cp = parseHex4();
        // Surrogate pair handling for completeness; the journal
        // only ever writes \u00xx control escapes.
        if (cp >= 0xd800 && cp <= 0xdbff) {
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
                pos_ += 2;
                unsigned lo = parseHex4();
                if (lo >= 0xdc00 && lo <= 0xdfff) {
                    cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                } else {
                    fail("unpaired surrogate");
                }
            } else {
                fail("unpaired surrogate");
            }
        }
        std::string out;
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
        return out;
    }

    unsigned
    parseHex4()
    {
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size())
                fail("unterminated \\u escape");
            char c = text_[pos_++];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("bad hex digit");
        }
        return v;
    }

    Value
    parseNumber()
    {
        std::size_t start = pos_;
        bool isInteger = true;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            isInteger = false;
            ++pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            }
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            isInteger = false;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-')) {
                ++pos_;
            }
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            }
        }
        const std::string tok(text_.substr(start, pos_ - start));
        try {
            if (isInteger)
                return Value(static_cast<std::int64_t>(std::stoll(tok)));
            return Value(std::stod(tok));
        } catch (const std::exception &) {
            pos_ = start;
            fail("bad number '" + tok + "'");
        }
    }

    Value
    parseArray()
    {
        expect('[');
        Array a;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return Value(std::move(a));
        }
        for (;;) {
            a.push_back(parseValue());
            skipWs();
            char c = peek();
            ++pos_;
            if (c == ']')
                return Value(std::move(a));
            if (c != ',')
                fail("expected ',' or ']'");
        }
    }

    Value
    parseObject()
    {
        expect('{');
        Object o;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return Value(std::move(o));
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            o[std::move(key)] = parseValue();
            skipWs();
            char c = peek();
            ++pos_;
            if (c == '}')
                return Value(std::move(o));
            if (c != ',')
                fail("expected ',' or '}'");
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

bool
Value::asBool() const
{
    if (!isBool())
        typeError("a bool");
    return std::get<bool>(v_);
}

std::int64_t
Value::asInt() const
{
    if (!isInt())
        typeError("an integer");
    return std::get<std::int64_t>(v_);
}

double
Value::asDouble() const
{
    if (isInt())
        return static_cast<double>(std::get<std::int64_t>(v_));
    if (!isDouble())
        typeError("a number");
    return std::get<double>(v_);
}

const std::string &
Value::asString() const
{
    if (!isString())
        typeError("a string");
    return std::get<std::string>(v_);
}

const Array &
Value::asArray() const
{
    if (!isArray())
        typeError("an array");
    return std::get<Array>(v_);
}

const Object &
Value::asObject() const
{
    if (!isObject())
        typeError("an object");
    return std::get<Object>(v_);
}

Array &
Value::asArray()
{
    if (!isArray())
        typeError("an array");
    return std::get<Array>(v_);
}

Object &
Value::asObject()
{
    if (!isObject())
        typeError("an object");
    return std::get<Object>(v_);
}

const Value *
Value::get(const std::string &key) const
{
    if (!isObject())
        return nullptr;
    const Object &o = std::get<Object>(v_);
    auto it = o.find(key);
    return it == o.end() ? nullptr : &it->second;
}

std::string
Value::getString(const std::string &key, const std::string &dflt) const
{
    const Value *v = get(key);
    return v && v->isString() ? v->asString() : dflt;
}

std::int64_t
Value::getInt(const std::string &key, std::int64_t dflt) const
{
    const Value *v = get(key);
    return v && v->isInt() ? v->asInt() : dflt;
}

bool
Value::getBool(const std::string &key, bool dflt) const
{
    const Value *v = get(key);
    return v && v->isBool() ? v->asBool() : dflt;
}

std::string
Value::serialize() const
{
    faultinject::checkSite(faultinject::site::kJsonSerialize);
    std::string out;
    serializeInto(*this, out, -1, 0);
    return out;
}

std::string
Value::pretty() const
{
    std::string out;
    serializeInto(*this, out, 2, 0);
    return out;
}

Value
Value::parse(std::string_view text)
{
    faultinject::checkSite(faultinject::site::kJsonParse);
    return Parser(text).parseDocument();
}

Value
stringArray(const std::vector<std::string> &strings)
{
    Array a;
    a.reserve(strings.size());
    for (const std::string &s : strings)
        a.emplace_back(s);
    return Value(std::move(a));
}

} // namespace lkmm::json
