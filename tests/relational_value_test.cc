#include "psc/relational/value.h"

#include <algorithm>
#include <compare>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "psc/relational/term.h"
#include "psc/util/random.h"

namespace psc {
namespace {

TEST(ValueTest, Kinds) {
  Value i(int64_t{42});
  Value s("hello");
  EXPECT_TRUE(i.is_int());
  EXPECT_FALSE(i.is_string());
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(i.AsInt(), 42);
  EXPECT_EQ(s.AsString(), "hello");
}

TEST(ValueTest, DefaultIsIntZero) {
  Value v;
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.AsInt(), 0);
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_NE(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_EQ(Value("a"), Value("a"));
  EXPECT_NE(Value("a"), Value("b"));
  EXPECT_NE(Value(int64_t{1}), Value("1"));  // kinds never compare equal
}

TEST(ValueTest, TotalOrderIntsBeforeStrings) {
  EXPECT_LT(Value(int64_t{5}), Value(int64_t{6}));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_LT(Value(int64_t{1000000}), Value("0"));  // every int < every string
  EXPECT_GT(Value(""), Value(int64_t{-1}));
}

TEST(ValueTest, OrderingIsStrictWeak) {
  const std::vector<Value> values = {Value(int64_t{3}), Value(int64_t{-2}),
                                     Value("z"), Value("a"),
                                     Value(int64_t{3})};
  std::set<Value> sorted(values.begin(), values.end());
  EXPECT_EQ(sorted.size(), 4u);
  auto it = sorted.begin();
  EXPECT_EQ(*it++, Value(int64_t{-2}));
  EXPECT_EQ(*it++, Value(int64_t{3}));
  EXPECT_EQ(*it++, Value("a"));
  EXPECT_EQ(*it++, Value("z"));
}

TEST(ValueTest, ToStringQuotesStrings) {
  EXPECT_EQ(Value(int64_t{-7}).ToString(), "-7");
  EXPECT_EQ(Value("Canada").ToString(), "\"Canada\"");
}

TEST(ValueTest, ToStringEscapesSpecials) {
  EXPECT_EQ(Value("a\"b").ToString(), "\"a\\\"b\"");
  EXPECT_EQ(Value("back\\slash").ToString(), "\"back\\\\slash\"");
  EXPECT_EQ(Value("line\nbreak").ToString(), "\"line\\nbreak\"");
  EXPECT_EQ(Value("tab\there").ToString(), "\"tab\\there\"");
}

TEST(TupleTest, ToString) {
  EXPECT_EQ(TupleToString({}), "()");
  EXPECT_EQ(TupleToString({Value(int64_t{1})}), "(1)");
  EXPECT_EQ(TupleToString({Value(int64_t{1}), Value("x")}), "(1, \"x\")");
}

TEST(TupleTest, LexicographicComparison) {
  Tuple a = {Value(int64_t{1}), Value(int64_t{2})};
  Tuple b = {Value(int64_t{1}), Value(int64_t{3})};
  Tuple c = {Value(int64_t{1})};
  EXPECT_LT(a, b);
  EXPECT_LT(c, a);  // prefix sorts first
}

/// Lexicographic order spelled out with Value::Compare: the first unequal
/// element decides, and a proper prefix sorts first.
int CompareTuples(const Tuple& a, const Tuple& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (const int cmp = a[i].Compare(b[i]); cmp != 0) return cmp;
  }
  return (a.size() > b.size()) - (a.size() < b.size());
}

TEST(TupleTest, OperatorsAgreeWithExplicitCompare) {
  // Few distinct constants, so equal elements, shared prefixes and equal
  // tuples are common; both kinds, so ints-before-strings is exercised.
  const std::vector<Value> constants = {Value(int64_t{-3}), Value(int64_t{0}),
                                        Value(int64_t{7}), Value(""),
                                        Value("a"), Value("ab")};
  Rng rng(20261018);
  std::vector<Tuple> tuples;
  for (int i = 0; i < 400; ++i) {
    Tuple tuple(static_cast<size_t>(rng.UniformInt(0, 3)));
    for (Value& value : tuple) {
      value = constants[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(constants.size()) - 1))];
    }
    tuples.push_back(tuple);
    // Every proper prefix of some tuples, so prefixes meet their extensions.
    if (i % 8 == 0) {
      for (size_t n = 0; n < tuple.size(); ++n) {
        tuples.emplace_back(tuple.begin(), tuple.begin() + n);
      }
    }
  }

  for (const Tuple& a : tuples) {
    for (const Tuple& b : tuples) {
      const int expected = CompareTuples(a, b);
      ASSERT_EQ(a < b, expected < 0) << TupleToString(a) << TupleToString(b);
      ASSERT_EQ(a == b, expected == 0) << TupleToString(a) << TupleToString(b);
      ASSERT_EQ(a <=> b, expected <=> 0)
          << TupleToString(a) << TupleToString(b);
      if (!a.empty() && !b.empty()) {
        ASSERT_EQ(a[0] < b[0], a[0].Compare(b[0]) < 0);
        ASSERT_EQ(a[0] == b[0], a[0].Compare(b[0]) == 0);
        ASSERT_EQ(a[0] <=> b[0], a[0].Compare(b[0]) <=> 0);
      }
    }
  }

  std::vector<Tuple> by_operator = tuples;
  std::vector<Tuple> by_compare = tuples;
  std::sort(by_operator.begin(), by_operator.end());
  std::sort(by_compare.begin(), by_compare.end(),
            [](const Tuple& a, const Tuple& b) {
              return CompareTuples(a, b) < 0;
            });
  EXPECT_EQ(by_operator, by_compare);
}

TEST(TermTest, VariableAndConstant) {
  Term var = Term::Var("x");
  Term constant = Term::ConstInt(5);
  Term str = Term::ConstStr("s");
  EXPECT_TRUE(var.is_variable());
  EXPECT_FALSE(var.is_constant());
  EXPECT_TRUE(constant.is_constant());
  EXPECT_EQ(var.var_name(), "x");
  EXPECT_EQ(constant.constant().AsInt(), 5);
  EXPECT_EQ(str.constant().AsString(), "s");
}

TEST(TermTest, Equality) {
  EXPECT_EQ(Term::Var("x"), Term::Var("x"));
  EXPECT_NE(Term::Var("x"), Term::Var("y"));
  EXPECT_NE(Term::Var("x"), Term::ConstStr("x"));
  EXPECT_EQ(Term::ConstInt(1), Term::ConstInt(1));
}

TEST(TermTest, OrderVariablesFirst) {
  EXPECT_LT(Term::Var("z"), Term::ConstInt(0));
  EXPECT_LT(Term::Var("a"), Term::Var("b"));
  EXPECT_LT(Term::ConstInt(1), Term::ConstInt(2));
}

TEST(TermTest, ToString) {
  EXPECT_EQ(Term::Var("year").ToString(), "year");
  EXPECT_EQ(Term::ConstInt(1900).ToString(), "1900");
  EXPECT_EQ(Term::ConstStr("US").ToString(), "\"US\"");
}

}  // namespace
}  // namespace psc
