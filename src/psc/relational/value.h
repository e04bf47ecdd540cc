#ifndef PSC_RELATIONAL_VALUE_H_
#define PSC_RELATIONAL_VALUE_H_

#include <compare>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace psc {

/// \brief A constant from the domain `dom`: a 64-bit integer or a string.
///
/// The paper's model is untyped (an infinite set of constants); two kinds
/// cover every construction in the paper — integers for years/measurements
/// and built-in comparisons, strings for names such as "Canada". Values have
/// a total order (integers before strings) so relations and databases can be
/// kept in canonical sorted form.
class Value {
 public:
  /// Integer 0.
  Value() : data_(int64_t{0}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  /// Convenience for string literals.
  explicit Value(const char* v) : data_(std::string(v)) {}

  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }

  /// The integer payload; aborts if this is a string value.
  int64_t AsInt() const;
  /// The string payload; aborts if this is an integer value.
  const std::string& AsString() const;

  /// \brief Three-way comparison under the total order (all integers sort
  /// before all strings): negative, zero or positive as *this <, == or > o.
  /// Inline, because every tuple comparison calls it once per element.
  int Compare(const Value& o) const {
    if (data_.index() != o.data_.index()) return is_int() ? -1 : 1;
    if (const int64_t* a = std::get_if<int64_t>(&data_)) {
      const int64_t b = *std::get_if<int64_t>(&o.data_);
      return (*a > b) - (*a < b);
    }
    const int cmp = std::get_if<std::string>(&data_)->compare(
        *std::get_if<std::string>(&o.data_));
    return (cmp > 0) - (cmp < 0);
  }

  bool operator==(const Value& o) const { return data_ == o.data_; }
  /// Total order: all integers sort before all strings. The relational
  /// operators, and `std::vector<Value>`'s lexicographic order, are each
  /// one Compare call per element.
  std::strong_ordering operator<=>(const Value& o) const {
    return Compare(o) <=> 0;
  }

  /// \brief Display form: integers bare, strings double-quoted
  /// (round-trips through the parser).
  std::string ToString() const;

 private:
  std::variant<int64_t, std::string> data_;
};

/// \brief A database tuple: an ordered list of constants.
using Tuple = std::vector<Value>;

/// "(v1, v2, …)" display form of a tuple.
std::string TupleToString(const Tuple& tuple);

}  // namespace psc

#endif  // PSC_RELATIONAL_VALUE_H_
