/**
 * @file
 * A minimal JSON value type with a deterministic serializer.
 *
 * The result journal (base/journal.hh) and the lkmm-sweep summary
 * need machine-readable records without an external dependency.
 * Value covers the JSON data model; objects are std::map, so
 * serialization is canonical (sorted keys, compact separators) —
 * the journal's per-record checksums rely on serialize() being a
 * pure function of the value.
 *
 * Numbers are kept as int64 when written as integers (journal
 * records only use integers) and as double otherwise.  parse()
 * throws StatusError(StatusCode::ParseError) on malformed input
 * with a byte offset in the message.
 */

#ifndef LKMM_BASE_JSON_HH
#define LKMM_BASE_JSON_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace lkmm::json
{

class Value;

using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

class Value
{
  public:
    Value() : v_(nullptr) {}
    Value(std::nullptr_t) : v_(nullptr) {}
    Value(bool b) : v_(b) {}
    Value(std::int64_t n) : v_(n) {}
    Value(int n) : v_(static_cast<std::int64_t>(n)) {}
    Value(std::size_t n) : v_(static_cast<std::int64_t>(n)) {}
    Value(double d) : v_(d) {}
    Value(std::string s) : v_(std::move(s)) {}
    Value(const char *s) : v_(std::string(s)) {}
    Value(Array a) : v_(std::move(a)) {}
    Value(Object o) : v_(std::move(o)) {}

    bool isNull() const { return std::holds_alternative<std::nullptr_t>(v_); }
    bool isBool() const { return std::holds_alternative<bool>(v_); }
    bool isInt() const { return std::holds_alternative<std::int64_t>(v_); }
    bool isDouble() const { return std::holds_alternative<double>(v_); }
    bool isString() const { return std::holds_alternative<std::string>(v_); }
    bool isArray() const { return std::holds_alternative<Array>(v_); }
    bool isObject() const { return std::holds_alternative<Object>(v_); }

    /** Accessors throw StatusError(InvalidArgument) on type mismatch. */
    bool asBool() const;
    std::int64_t asInt() const;
    double asDouble() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;
    Array &asArray();
    Object &asObject();

    /** Object field lookup; null when absent or not an object. */
    const Value *get(const std::string &key) const;

    /** Typed object field with a default for absent/mistyped. */
    std::string getString(const std::string &key,
                          const std::string &dflt = "") const;
    std::int64_t getInt(const std::string &key, std::int64_t dflt = 0) const;
    bool getBool(const std::string &key, bool dflt = false) const;

    /**
     * Compact canonical rendering: sorted object keys, no spaces,
     * integers without exponent, doubles via %.17g.
     */
    std::string serialize() const;

    /** Multi-line rendering for human consumption (2-space indent). */
    std::string pretty() const;

    /** Parse one JSON document; trailing garbage is an error. */
    static Value parse(std::string_view text);

    bool operator==(const Value &other) const { return v_ == other.v_; }
    bool operator!=(const Value &other) const { return v_ != other.v_; }

  private:
    std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
                 Array, Object>
        v_;
};

/* ------------------------------------------------------------------ */
/* Shared struct<->object codec helpers                                */
/* ------------------------------------------------------------------ */

/**
 * One entry of a field table: a JSON key bound to a std::size_t
 * counter member of T.  The report writers used to spell their
 * counter encodings field by field in several places (the batch
 * report, the sweep-journal records, the journal decoder), which
 * let the key sets drift; a shared table plus putFields/getFields
 * defines each schema's keys exactly once.
 */
template <class T>
struct SizeField
{
    const char *key;
    std::size_t T::*member;
};

/** Encode every table field of `v` into `o` as an integer. */
template <class T>
void
putFields(Object &o, const T &v, const std::vector<SizeField<T>> &fields)
{
    for (const SizeField<T> &f : fields)
        o[f.key] = Value(v.*f.member);
}

/**
 * Decode every table field of `record` into `v`.  Absent keys read
 * 0, so fields added later decode leniently from older records.
 */
template <class T>
void
getFields(const Value &record, T &v,
          const std::vector<SizeField<T>> &fields)
{
    for (const SizeField<T> &f : fields)
        v.*f.member = static_cast<std::size_t>(record.getInt(f.key, 0));
}

/** A vector of strings as a JSON array value. */
Value stringArray(const std::vector<std::string> &strings);

/**
 * Append `s` as a quoted JSON string: exactly the bytes serialize()
 * writes for Value(std::string(s)).  Lets callers build canonical
 * documents by concatenation around already-serialized parts.
 */
void appendEscaped(std::string &out, std::string_view s);

} // namespace lkmm::json

#endif // LKMM_BASE_JSON_HH
