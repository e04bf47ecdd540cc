#include "psc/util/bigint.h"

#include <cstdint>

#include "gtest/gtest.h"

namespace psc {
namespace {

TEST(BigIntTest, ZeroProperties) {
  BigInt zero;
  EXPECT_TRUE(zero.IsZero());
  EXPECT_EQ(zero.ToString(), "0");
  EXPECT_EQ(zero.ToDouble(), 0.0);
  EXPECT_EQ(zero.BitLength(), 0);
  EXPECT_EQ(zero.ToUint64(), 0u);
}

TEST(BigIntTest, FromUint64RoundTrips) {
  for (const uint64_t value :
       {uint64_t{0}, uint64_t{1}, uint64_t{4294967295}, uint64_t{4294967296},
        uint64_t{18446744073709551615u}}) {
    BigInt big(value);
    EXPECT_TRUE(big.FitsUint64());
    EXPECT_EQ(big.ToUint64(), value);
    EXPECT_EQ(big.ToString(), std::to_string(value));
  }
}

TEST(BigIntTest, AdditionWithCarries) {
  BigInt a(0xffffffffu);
  BigInt b(1);
  EXPECT_EQ((a + b).ToUint64(), 0x100000000u);
  BigInt max64(UINT64_MAX);
  BigInt sum = max64 + BigInt(1);
  EXPECT_FALSE(sum.FitsUint64() && sum.ToUint64() == 0);  // grew a limb
  EXPECT_EQ(sum.ToString(), "18446744073709551616");
}

TEST(BigIntTest, SubtractionExact) {
  BigInt a(1000);
  BigInt b(999);
  EXPECT_EQ((a - b).ToUint64(), 1u);
  EXPECT_TRUE((a - a).IsZero());
  // Borrow across limbs.
  BigInt big = BigInt(UINT64_MAX) + BigInt(1);
  EXPECT_EQ((big - BigInt(1)).ToUint64(), UINT64_MAX);
}

TEST(BigIntTest, MultiplicationSmall) {
  EXPECT_EQ((BigInt(12345) * BigInt(6789)).ToUint64(), 83810205u);
  EXPECT_TRUE((BigInt(0) * BigInt(12345)).IsZero());
  EXPECT_EQ((BigInt(1) * BigInt(77)).ToUint64(), 77u);
}

TEST(BigIntTest, MultiplicationLargeMatchesPowersOfTwo) {
  // 2^200 via repeated squaring, check bit length and decimal string.
  BigInt two(2);
  BigInt value(1);
  for (int i = 0; i < 200; ++i) value = value * two;
  EXPECT_EQ(value.BitLength(), 201);
  EXPECT_EQ(value.ToString(),
            "1606938044258990275541962092341162602522202993782792835301376");
}

TEST(BigIntTest, MulU32MatchesMul) {
  BigInt a(987654321);
  BigInt b = a;
  b.MulU32(12345);
  EXPECT_EQ(b, a * BigInt(12345));
}

TEST(BigIntTest, DivU32WithRemainder) {
  BigInt value(1000000007);
  const uint32_t remainder = value.DivU32(10);
  EXPECT_EQ(remainder, 7u);
  EXPECT_EQ(value.ToUint64(), 100000000u);
}

TEST(BigIntTest, DivExactU32) {
  BigInt value = BigInt(123456) * BigInt(789);
  EXPECT_EQ(value.DivExactU32(789).ToUint64(), 123456u);
}

TEST(BigIntTest, ComparisonTotalOrder) {
  BigInt small(5);
  BigInt large = BigInt(UINT64_MAX) * BigInt(UINT64_MAX);
  EXPECT_LT(small, large);
  EXPECT_GT(large, small);
  EXPECT_LE(small, small);
  EXPECT_GE(small, small);
  EXPECT_EQ(small.Compare(small), 0);
  EXPECT_NE(small, large);
}

TEST(BigIntTest, ToDoubleLargeValues) {
  BigInt value(1);
  for (int i = 0; i < 100; ++i) value = value * BigInt(2);
  EXPECT_NEAR(value.ToDouble(), std::ldexp(1.0, 100), std::ldexp(1.0, 60));
}

TEST(BigIntTest, RatioToDoubleHugeOperands) {
  // (2^500 · 3) / 2^500 == 3 even though both operands overflow double.
  BigInt denominator(1);
  for (int i = 0; i < 500; ++i) denominator = denominator * BigInt(2);
  BigInt numerator = denominator * BigInt(3);
  EXPECT_NEAR(BigInt::RatioToDouble(numerator, denominator), 3.0, 1e-12);
  EXPECT_EQ(BigInt::RatioToDouble(BigInt(), denominator), 0.0);
}

TEST(BigIntTest, RatioToDoubleSimpleFractions) {
  EXPECT_NEAR(BigInt::RatioToDouble(BigInt(1), BigInt(3)), 1.0 / 3.0, 1e-15);
  EXPECT_NEAR(BigInt::RatioToDouble(BigInt(7), BigInt(8)), 0.875, 1e-15);
}

TEST(BigIntTest, DecimalStringPadding) {
  // A value whose middle 9-digit chunk needs zero padding.
  BigInt value(1);
  value.MulU32(1000000000u);
  value.MulU32(1000000000u);
  EXPECT_EQ(value.ToString(), "1000000000000000000");
  BigInt value2(1000000001);
  value2.MulU32(1000000000u);
  EXPECT_EQ(value2.ToString(), "1000000001000000000");
}

TEST(BigIntTest, RandomBelowStaysInRange) {
  std::mt19937_64 engine(7);
  BigInt bound = BigInt(1000003);
  for (int i = 0; i < 200; ++i) {
    BigInt sample = BigInt::RandomBelow(bound, engine);
    EXPECT_LT(sample, bound);
  }
  // Bound of 1 always yields 0.
  EXPECT_TRUE(BigInt::RandomBelow(BigInt(1), engine).IsZero());
}

TEST(BigIntTest, RandomBelowLargeBoundCoversHighLimbs) {
  std::mt19937_64 engine(11);
  BigInt bound = BigInt(UINT64_MAX) * BigInt(UINT64_MAX);
  bool saw_large = false;
  for (int i = 0; i < 64; ++i) {
    BigInt sample = BigInt::RandomBelow(bound, engine);
    EXPECT_LT(sample, bound);
    if (!sample.FitsUint64()) saw_large = true;
  }
  EXPECT_TRUE(saw_large);
}

using Uint128 = unsigned __int128;

TEST(BigIntTest, FromUint128MatchesLimbArithmetic) {
  const BigInt two64 = BigInt(uint64_t{1} << 32) * BigInt(uint64_t{1} << 32);
  EXPECT_TRUE(BigInt::FromUint128(0).IsZero());
  EXPECT_EQ(BigInt::FromUint128(UINT64_MAX), BigInt(UINT64_MAX));
  EXPECT_EQ(BigInt::FromUint128(Uint128{1} << 64), two64);
  EXPECT_EQ(BigInt::FromUint128((Uint128{0x1234} << 64) | 0xabcd),
            BigInt(0x1234) * two64 + BigInt(0xabcd));
}

/// Expects RandomBelow128 to return what RandomBelow returns from the
/// same engine state, and to leave the engine in the same state.
void ExpectRandomBelowAgrees(Uint128 bound, uint64_t seed, int draws) {
  std::mt19937_64 engine(seed);
  std::mt19937_64 reference(seed);
  const BigInt big_bound = BigInt::FromUint128(bound);
  for (int i = 0; i < draws; ++i) {
    const Uint128 value = BigInt::RandomBelow128(bound, engine);
    ASSERT_EQ(BigInt::FromUint128(value),
              BigInt::RandomBelow(big_bound, reference))
        << "bound " << big_bound.ToString() << " draw " << i;
    ASSERT_TRUE(value < bound);
  }
  EXPECT_EQ(engine(), reference()) << "bound " << big_bound.ToString();
}

TEST(BigIntTest, RandomBelow128MatchesRandomBelow) {
  // 3·2^61 comes first: its two limbs and 31-bit top limb accept most
  // tries, so a wrong limb order or mask shows at once. Draws stop at the
  // first mismatch, because a wrong draw can reject nearly every try on
  // the bounds after it.
  const Uint128 one = 1;
  for (const Uint128 bound :
       {Uint128{3} << 61, one, (one << 32) - 1, one << 32, one << 64,
        (one << 64) + 1, (one << 121) - 1}) {
    ExpectRandomBelowAgrees(bound, 29, 50);
    if (HasFailure()) return;
  }
  // Seeded bounds of 1 to 121 bits, top bit set.
  std::mt19937_64 bounds(31);
  for (int i = 0; i < 1000; ++i) {
    const int bits = 1 + static_cast<int>(bounds() % 121);
    Uint128 bound = (Uint128{bounds()} << 64) | bounds();
    bound &= (one << bits) - 1;
    bound |= one << (bits - 1);
    ExpectRandomBelowAgrees(bound, 1000 + static_cast<uint64_t>(i), 5);
    if (HasFailure()) return;
  }
}

TEST(BigIntTest, AccumulationMatchesClosedForm) {
  // Σ_{k=0}^{63} C-like doubling: Σ 2^k = 2^64 − 1.
  BigInt sum;
  BigInt term(1);
  for (int k = 0; k < 64; ++k) {
    sum += term;
    term = term * BigInt(2);
  }
  EXPECT_EQ(sum.ToUint64(), UINT64_MAX);
}

}  // namespace
}  // namespace psc
