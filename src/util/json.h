#ifndef COURSENAV_UTIL_JSON_H_
#define COURSENAV_UTIL_JSON_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace coursenav {

/// A minimal JSON document model.
///
/// Used by the catalog loader (`parsers/catalog_loader`) and the graph/path
/// exporters (`graph/export`). Supports the full JSON value grammar with the
/// usual practical restrictions: numbers are IEEE doubles, object keys are
/// unique (later duplicates win), and input must be UTF-8 (escapes are passed
/// through unvalidated).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// std::map keeps serialization deterministic (sorted keys), which the
  /// golden-file tests rely on.
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  JsonValue(double d) : type_(Type::kNumber), number_(d) {}
  JsonValue(int i) : type_(Type::kNumber), number_(i) {}
  JsonValue(int64_t i)
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  JsonValue(const char* s) : type_(Type::kString), string_(s) {}
  JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  JsonValue(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  JsonValue(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  /// Parses a complete JSON document. Trailing non-whitespace is an error,
  /// and so is nesting arrays and objects more than 256 levels deep.
  static Result<JsonValue> Parse(std::string_view text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; each fails with InvalidArgument on a type mismatch.
  Result<bool> GetBool() const;
  Result<double> GetNumber() const;
  Result<int64_t> GetInt() const;
  Result<std::string> GetString() const;

  /// Unchecked accessors, for use after the type has been verified.
  const Array& array() const { return array_; }
  Array& array() { return array_; }
  const Object& object() const { return object_; }
  Object& object() { return object_; }

  /// Object member lookup; NotFound if absent or not an object.
  Result<JsonValue> Get(std::string_view key) const;

  /// True if this is an object containing `key`.
  bool Has(std::string_view key) const;

  /// Serializes compactly ("{"a":1}") or pretty-printed when `indent` > 0.
  std::string Dump(int indent = 0) const;

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Escapes `s` as a JSON string literal including the surrounding quotes.
std::string JsonEscape(std::string_view s);

/// Checks that `value` is an object whose every key is one of `known`.
/// `where` names the object in messages: "unknown field 'x' in <where>".
Status CheckObjectKeys(const JsonValue& value, std::string_view where,
                       std::initializer_list<std::string_view> known);

/// A status as `{"code": "InvalidArgument", "message": "..."}`.
JsonValue StatusToJson(const Status& status);

/// Parses StatusToJson's form into `*out`. An out-parameter because
/// Result<Status> would be ambiguous: a Status is both a payload and an
/// error here.
Status StatusFromJson(const JsonValue& json, Status* out);

}  // namespace coursenav

#endif  // COURSENAV_UTIL_JSON_H_
