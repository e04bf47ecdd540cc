#include "psc/relational/value.h"

#include "psc/util/status.h"

namespace psc {

int64_t Value::AsInt() const {
  PSC_CHECK_MSG(is_int(), "Value::AsInt on a string value");
  return std::get<int64_t>(data_);
}

const std::string& Value::AsString() const {
  PSC_CHECK_MSG(is_string(), "Value::AsString on an integer value");
  return std::get<std::string>(data_);
}

std::string Value::ToString() const {
  if (is_int()) return std::to_string(AsInt());
  // Escape so the result re-parses through the lexer's string rules.
  std::string out = "\"";
  for (const char c : AsString()) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  out += "\"";
  return out;
}

std::string TupleToString(const Tuple& tuple) {
  std::string out = "(";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) out += ", ";
    out += tuple[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace psc
