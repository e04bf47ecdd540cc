#include "psc/util/bigint.h"

#include <algorithm>
#include <cmath>

#include "psc/util/status.h"

namespace psc {

namespace {
constexpr uint64_t kBase = uint64_t{1} << 32;
}  // namespace

BigInt::BigInt(uint64_t value) {
  while (value != 0) {
    limbs_.push_back(static_cast<uint32_t>(value & 0xffffffffu));
    value >>= 32;
  }
}

void BigInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt& BigInt::operator+=(const BigInt& other) {
  const size_t n = std::max(limbs_.size(), other.limbs_.size());
  limbs_.resize(n, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry + limbs_[i];
    if (i < other.limbs_.size()) sum += other.limbs_[i];
    limbs_[i] = static_cast<uint32_t>(sum & 0xffffffffu);
    carry = sum >> 32;
  }
  if (carry != 0) limbs_.push_back(static_cast<uint32_t>(carry));
  return *this;
}

BigInt BigInt::operator+(const BigInt& other) const {
  BigInt result = *this;
  result += other;
  return result;
}

BigInt& BigInt::operator-=(const BigInt& other) {
  PSC_CHECK_MSG(*this >= other, "BigInt subtraction would underflow");
  uint64_t borrow = 0;
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t sub = borrow;
    if (i < other.limbs_.size()) sub += other.limbs_[i];
    if (limbs_[i] >= sub) {
      limbs_[i] = static_cast<uint32_t>(limbs_[i] - sub);
      borrow = 0;
    } else {
      limbs_[i] = static_cast<uint32_t>(kBase + limbs_[i] - sub);
      borrow = 1;
    }
  }
  PSC_CHECK(borrow == 0);
  Normalize();
  return *this;
}

BigInt BigInt::operator-(const BigInt& other) const {
  BigInt result = *this;
  result -= other;
  return result;
}

BigInt BigInt::operator*(const BigInt& other) const {
  if (IsZero() || other.IsZero()) return BigInt();
  BigInt result;
  result.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t carry = 0;
    const uint64_t a = limbs_[i];
    for (size_t j = 0; j < other.limbs_.size(); ++j) {
      uint64_t cur = result.limbs_[i + j] + a * other.limbs_[j] + carry;
      result.limbs_[i + j] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    size_t k = i + other.limbs_.size();
    while (carry != 0) {
      uint64_t cur = result.limbs_[k] + carry;
      result.limbs_[k] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  result.Normalize();
  return result;
}

BigInt& BigInt::operator*=(const BigInt& other) {
  *this = *this * other;
  return *this;
}

BigInt& BigInt::MulU32(uint32_t factor) {
  if (factor == 0 || IsZero()) {
    limbs_.clear();
    return *this;
  }
  uint64_t carry = 0;
  for (uint32_t& limb : limbs_) {
    uint64_t cur = static_cast<uint64_t>(limb) * factor + carry;
    limb = static_cast<uint32_t>(cur & 0xffffffffu);
    carry = cur >> 32;
  }
  if (carry != 0) limbs_.push_back(static_cast<uint32_t>(carry));
  return *this;
}

uint32_t BigInt::DivU32(uint32_t divisor) {
  PSC_CHECK_MSG(divisor != 0, "BigInt division by zero");
  uint64_t remainder = 0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    uint64_t cur = (remainder << 32) | limbs_[i];
    limbs_[i] = static_cast<uint32_t>(cur / divisor);
    remainder = cur % divisor;
  }
  Normalize();
  return static_cast<uint32_t>(remainder);
}

BigInt BigInt::DivExactU32(uint32_t divisor) const {
  BigInt result = *this;
  uint32_t remainder = result.DivU32(divisor);
  PSC_CHECK_MSG(remainder == 0, "BigInt::DivExactU32: division not exact");
  return result;
}

int BigInt::Compare(const BigInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

std::string BigInt::ToString() const {
  if (IsZero()) return "0";
  BigInt tmp = *this;
  std::string digits;
  while (!tmp.IsZero()) {
    uint32_t chunk = tmp.DivU32(1000000000u);
    if (tmp.IsZero()) {
      // Most significant chunk: no zero padding.
      digits.insert(0, std::to_string(chunk));
    } else {
      std::string part = std::to_string(chunk);
      digits.insert(0, std::string(9 - part.size(), '0') + part);
    }
  }
  return digits;
}

double BigInt::MantissaAndExponent(int* exponent) const {
  if (IsZero()) {
    *exponent = 0;
    return 0.0;
  }
  // Use the top (up to) 3 limbs for 96 bits of precision headroom.
  const int top = static_cast<int>(limbs_.size()) - 1;
  double mantissa = 0.0;
  for (int i = top; i >= 0 && i > top - 3; --i) {
    mantissa = mantissa * static_cast<double>(kBase) + limbs_[i];
  }
  const int used = std::min<int>(3, static_cast<int>(limbs_.size()));
  int exp2 = (static_cast<int>(limbs_.size()) - used) * 32;
  int local_exp = 0;
  mantissa = std::frexp(mantissa, &local_exp);
  *exponent = exp2 + local_exp;
  return mantissa;
}

double BigInt::ToDouble() const {
  int exp = 0;
  double mant = MantissaAndExponent(&exp);
  return std::ldexp(mant, exp);
}

double BigInt::RatioToDouble(const BigInt& num, const BigInt& den) {
  PSC_CHECK_MSG(!den.IsZero(), "BigInt::RatioToDouble: zero denominator");
  if (num.IsZero()) return 0.0;
  int num_exp = 0;
  int den_exp = 0;
  const double num_mant = num.MantissaAndExponent(&num_exp);
  const double den_mant = den.MantissaAndExponent(&den_exp);
  return std::ldexp(num_mant / den_mant, num_exp - den_exp);
}

BigInt BigInt::RandomBelow(const BigInt& bound, std::mt19937_64& engine) {
  PSC_CHECK_MSG(!bound.IsZero(), "BigInt::RandomBelow: zero bound");
  const int bits = bound.BitLength();
  const size_t limbs = (static_cast<size_t>(bits) + 31) / 32;
  const int top_bits = bits - static_cast<int>(limbs - 1) * 32;
  const uint32_t top_mask =
      top_bits >= 32 ? 0xffffffffu : ((uint32_t{1} << top_bits) - 1);
  while (true) {
    BigInt candidate;
    candidate.limbs_.resize(limbs);
    for (size_t i = 0; i < limbs; ++i) {
      candidate.limbs_[i] = static_cast<uint32_t>(engine());
    }
    candidate.limbs_.back() &= top_mask;
    candidate.Normalize();
    if (candidate < bound) return candidate;
  }
}

unsigned __int128 BigInt::RandomBelow128(unsigned __int128 bound,
                                         std::mt19937_64& engine) {
  PSC_CHECK_MSG(bound != 0, "BigInt::RandomBelow128: zero bound");
  const uint64_t high = static_cast<uint64_t>(bound >> 64);
  const uint64_t low = static_cast<uint64_t>(bound);
  const int bits =
      high != 0 ? 128 - __builtin_clzll(high) : 64 - __builtin_clzll(low);
  const int limbs = (bits + 31) / 32;
  const int top_bits = bits - (limbs - 1) * 32;
  const uint32_t top_mask =
      top_bits >= 32 ? 0xffffffffu : ((uint32_t{1} << top_bits) - 1);
  while (true) {
    unsigned __int128 candidate = 0;
    for (int i = 0; i < limbs; ++i) {
      uint32_t limb = static_cast<uint32_t>(engine());
      if (i + 1 == limbs) limb &= top_mask;
      candidate |= static_cast<unsigned __int128>(limb) << (32 * i);
    }
    if (candidate < bound) return candidate;
  }
}

BigInt BigInt::FromUint128(unsigned __int128 value) {
  BigInt result;
  while (value != 0) {
    result.limbs_.push_back(static_cast<uint32_t>(value));
    value >>= 32;
  }
  return result;
}

int BigInt::BitLength() const {
  if (IsZero()) return 0;
  int bits = (static_cast<int>(limbs_.size()) - 1) * 32;
  uint32_t top = limbs_.back();
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

uint64_t BigInt::ToUint64() const {
  PSC_CHECK_MSG(FitsUint64(), "BigInt::ToUint64: value too large");
  uint64_t value = 0;
  if (limbs_.size() >= 2) value = static_cast<uint64_t>(limbs_[1]) << 32;
  if (!limbs_.empty()) value |= limbs_[0];
  return value;
}

}  // namespace psc
