#ifndef PSC_UTIL_BIGINT_H_
#define PSC_UTIL_BIGINT_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace psc {

/// \brief Arbitrary-precision unsigned integer.
///
/// World counts in the Section 5.1 model counter grow like 2^N for a fact
/// universe of size N, which overflows any fixed-width type long before the
/// experiments become interesting; confidences must stay exact ratios of
/// counts. `BigInt` implements exactly the operations the counter needs:
/// addition, multiplication, ordering, subtraction (of a smaller value),
/// exact division by a machine word, and conversion to decimal / double.
///
/// Representation: little-endian vector of 32-bit limbs with no trailing
/// zero limbs (so zero is the empty vector).
class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  /// Construct from a machine integer.
  explicit BigInt(uint64_t value);

  BigInt(const BigInt&) = default;
  BigInt& operator=(const BigInt&) = default;
  BigInt(BigInt&&) = default;
  BigInt& operator=(BigInt&&) = default;

  bool IsZero() const { return limbs_.empty(); }
  bool IsOne() const { return limbs_.size() == 1 && limbs_[0] == 1; }

  BigInt& operator+=(const BigInt& other);
  BigInt operator+(const BigInt& other) const;

  /// Subtracts `other` from this value. Aborts if `other > *this`
  /// (the library only ever subtracts smaller counts from larger ones).
  BigInt& operator-=(const BigInt& other);
  BigInt operator-(const BigInt& other) const;

  BigInt operator*(const BigInt& other) const;
  BigInt& operator*=(const BigInt& other);

  /// Multiplies by a machine word in place.
  BigInt& MulU32(uint32_t factor);

  /// \brief Divides by a machine word in place and returns the remainder.
  uint32_t DivU32(uint32_t divisor);

  /// \brief Divides by `divisor`, aborting unless the division is exact.
  ///
  /// Used to turn Σ_worlds weight·k_g into a per-fact count (divisible by
  /// the group size termwise; see SignatureCounter).
  BigInt DivExactU32(uint32_t divisor) const;

  /// Three-way comparison.
  int Compare(const BigInt& other) const;

  bool operator==(const BigInt& o) const { return Compare(o) == 0; }
  bool operator!=(const BigInt& o) const { return Compare(o) != 0; }
  bool operator<(const BigInt& o) const { return Compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return Compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return Compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return Compare(o) >= 0; }

  /// Decimal representation.
  std::string ToString() const;

  /// Best-effort conversion; +inf if the value exceeds double range.
  double ToDouble() const;

  /// \brief Returns `num/den` as a double, stable even when both operands
  /// far exceed double range. Aborts if `den` is zero.
  static double RatioToDouble(const BigInt& num, const BigInt& den);

  /// Number of significant bits (0 for zero).
  int BitLength() const;

  /// \brief Uniformly random value in [0, bound) via rejection sampling.
  /// Aborts if `bound` is zero. Used for exact-uniform world sampling.
  ///
  /// Each try takes one engine call per 32-bit limb of `bound`, least
  /// significant first, masks the top limb to `bound`'s bit length, and is
  /// rejected unless below `bound`.
  static BigInt RandomBelow(const BigInt& bound, std::mt19937_64& engine);

  /// \brief `RandomBelow` for a bound that fits 128 bits, in 128-bit
  /// arithmetic: the same engine calls, so from the same engine state it
  /// returns the same value. Aborts if `bound` is zero.
  static unsigned __int128 RandomBelow128(unsigned __int128 bound,
                                          std::mt19937_64& engine);

  static BigInt FromUint128(unsigned __int128 value);

  /// True iff the value fits in uint64; `ToUint64` aborts otherwise.
  bool FitsUint64() const { return limbs_.size() <= 2; }
  uint64_t ToUint64() const;

 private:
  void Normalize();
  /// value = mantissa * 2^exponent with mantissa in [0.5, 1).
  double MantissaAndExponent(int* exponent) const;

  std::vector<uint32_t> limbs_;
};

}  // namespace psc

#endif  // PSC_UTIL_BIGINT_H_
