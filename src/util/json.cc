#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "util/string_util.h"

namespace coursenav {

namespace {

/// Deepest nesting of arrays and objects the parser accepts. It recurses
/// once per level, so the cap bounds its stack on hostile input (a request
/// frame of bare '[' characters); no document this program reads nests
/// more than a handful of levels.
constexpr int kMaxNestingDepth = 256;

/// Recursive-descent JSON parser over a string_view cursor.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    SkipWhitespace();
    COURSENAV_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Result<JsonValue> ParseValue() {
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxNestingDepth) {
          return Error("nesting deeper than " +
                       std::to_string(kMaxNestingDepth) + " levels");
        }
        ++depth_;
        Result<JsonValue> nested = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return nested;
      }
      case '"':
        return ParseString();
      case 't':
      case 'f':
        return ParseBool();
      case 'n':
        return ParseNull();
      default:
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
          return ParseNumber();
        }
        return Error(std::string("unexpected character '") + c + "'");
    }
  }

  Result<JsonValue> ParseObject() {
    ++pos_;  // consume '{'
    JsonValue::Object members;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return JsonValue(std::move(members));
    }
    while (true) {
      SkipWhitespace();
      if (Peek() != '"') return Error("expected string key in object");
      COURSENAV_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      SkipWhitespace();
      if (Peek() != ':') return Error("expected ':' after object key");
      ++pos_;
      SkipWhitespace();
      COURSENAV_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      members[key.GetString().value()] = std::move(value);
      SkipWhitespace();
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return JsonValue(std::move(members));
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray() {
    ++pos_;  // consume '['
    JsonValue::Array items;
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return JsonValue(std::move(items));
    }
    while (true) {
      SkipWhitespace();
      COURSENAV_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      items.push_back(std::move(value));
      SkipWhitespace();
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return JsonValue(std::move(items));
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseString() {
    ++pos_;  // consume '"'
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return JsonValue(std::move(out));
      if (c == '\\') {
        if (pos_ >= text_.size()) return Error("dangling escape");
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
            int code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= h - '0';
              } else if (h >= 'a' && h <= 'f') {
                code |= h - 'a' + 10;
              } else if (h >= 'A' && h <= 'F') {
                code |= h - 'A' + 10;
              } else {
                return Error("invalid hex digit in \\u escape");
              }
            }
            // Encode the BMP code point as UTF-8 (surrogate pairs are not
            // recombined; the catalog data is ASCII in practice).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Error(std::string("invalid escape '\\") + esc + "'");
        }
      } else {
        out += c;
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseBool() {
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      return JsonValue(true);
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return JsonValue(false);
    }
    return Error("invalid literal");
  }

  Result<JsonValue> ParseNull() {
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return JsonValue();
    }
    return Error("invalid literal");
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    Result<double> value = ParseDouble(text_.substr(start, pos_ - start));
    if (!value.ok()) return value.status();
    return JsonValue(*value);
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Status Error(std::string msg) const {
    return Status::ParseError("JSON at offset " + std::to_string(pos_) + ": " +
                              std::move(msg));
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects open around the cursor
};

}  // namespace

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonParser(text).ParseDocument();
}

Result<bool> JsonValue::GetBool() const {
  if (!is_bool()) return Status::InvalidArgument("JSON value is not a bool");
  return bool_;
}

Result<double> JsonValue::GetNumber() const {
  if (!is_number()) {
    return Status::InvalidArgument("JSON value is not a number");
  }
  return number_;
}

Result<int64_t> JsonValue::GetInt() const {
  if (!is_number()) {
    return Status::InvalidArgument("JSON value is not a number");
  }
  double rounded = std::nearbyint(number_);
  if (rounded != number_) {
    return Status::InvalidArgument("JSON number is not an integer");
  }
  return static_cast<int64_t>(rounded);
}

Result<std::string> JsonValue::GetString() const {
  if (!is_string()) {
    return Status::InvalidArgument("JSON value is not a string");
  }
  return string_;
}

Result<JsonValue> JsonValue::Get(std::string_view key) const {
  if (!is_object()) {
    return Status::InvalidArgument("JSON value is not an object");
  }
  auto it = object_.find(std::string(key));
  if (it == object_.end()) {
    return Status::NotFound("missing JSON key '" + std::string(key) + "'");
  }
  return it->second;
}

bool JsonValue::Has(std::string_view key) const {
  return is_object() && object_.find(std::string(key)) != object_.end();
}

std::string JsonEscape(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
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
  out += '"';
  return out;
}

void JsonValue::DumpTo(std::string& out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<size_t>(indent * d), ' ');
    }
  };
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber: {
      if (number_ == std::nearbyint(number_) &&
          std::abs(number_) < 9.0e15) {
        out += std::to_string(static_cast<int64_t>(number_));
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", number_);
        out += buf;
      }
      break;
    }
    case Type::kString:
      out += JsonEscape(string_);
      break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out += ',';
        newline(depth + 1);
        array_[i].DumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        out += JsonEscape(key);
        out += ':';
        if (indent > 0) out += ' ';
        value.DumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

Status CheckObjectKeys(const JsonValue& value, std::string_view where,
                       std::initializer_list<std::string_view> known) {
  if (!value.is_object()) {
    // Appended piecewise: `"'" + std::string(...)` trips GCC 12's
    // -Wrestrict false positive in optimized builds.
    std::string message = "'";
    message += where;
    message += "' must be an object";
    return Status::InvalidArgument(message);
  }
  for (const auto& [key, unused] : value.object()) {
    bool found = false;
    for (std::string_view k : known) {
      if (key == k) {
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("unknown field '" + key + "' in " +
                                     std::string(where));
    }
  }
  return Status::OK();
}

JsonValue StatusToJson(const Status& status) {
  JsonValue::Object object;
  object["code"] = JsonValue(std::string(StatusCodeToString(status.code())));
  object["message"] = JsonValue(status.message());
  return JsonValue(std::move(object));
}

Status StatusFromJson(const JsonValue& json, Status* out) {
  COURSENAV_ASSIGN_OR_RETURN(JsonValue code_value, json.Get("code"));
  COURSENAV_ASSIGN_OR_RETURN(std::string code_name, code_value.GetString());
  COURSENAV_ASSIGN_OR_RETURN(JsonValue message_value, json.Get("message"));
  COURSENAV_ASSIGN_OR_RETURN(std::string message, message_value.GetString());
  for (int c = 0; c <= static_cast<int>(StatusCode::kCancelled); ++c) {
    StatusCode code = static_cast<StatusCode>(c);
    if (StatusCodeToString(code) == code_name) {
      *out = Status(code, std::move(message));
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown status code '" + code_name + "'");
}

}  // namespace coursenav
