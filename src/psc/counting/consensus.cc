#include "psc/counting/consensus.h"

#include <algorithm>
#include <span>

#include "psc/counting/model_counter.h"

namespace psc {

namespace {

/// Tᵢ for one shape: tuples picked from groups inside source i.
int64_t InExtension(const IdentityInstance& instance,
                    std::span<const int64_t> counts, size_t source) {
  int64_t in_extension = 0;
  for (size_t g = 0; g < counts.size(); ++g) {
    if ((instance.groups()[g].signature & (uint64_t{1} << source)) != 0) {
      in_extension += counts[g];
    }
  }
  return in_extension;
}

}  // namespace

Result<std::vector<SourceConsensus>> ComputeSourceConsensus(
    const IdentityInstance& instance, const limits::Budget& budget) {
  SignatureCounter counter(&instance);
  PSC_ASSIGN_OR_RETURN(const ShapeTable shapes,
                       counter.FeasibleShapeTable(budget));
  const BigInt total = shapes.total();
  if (total.IsZero()) {
    return Status::Inconsistent(
        "poss(S) is empty: consensus measures are undefined");
  }

  const size_t n = instance.num_sources();
  // Σ weight·Tᵢ — exact; divided by |vᵢ|·|poss| at the end.
  std::vector<BigInt> weighted_sound(n);
  // Σ weight·Tᵢ / (|D|·|poss|) — each term an exact BigInt ratio rendered
  // to double (numerically safe even when |poss| overflows double).
  std::vector<double> expected_completeness(n, 0.0);

  for (size_t shape = 0; shape < shapes.num_shapes(); ++shape) {
    const std::span<const int64_t> counts = shapes.counts(shape);
    const BigInt weight = shapes.weight(shape);
    int64_t world_size = 0;
    for (const int64_t count : counts) world_size += count;
    for (size_t i = 0; i < n; ++i) {
      const int64_t in_extension = InExtension(instance, counts, i);
      if (in_extension > 0) {
        BigInt term = weight;
        term.MulU32(static_cast<uint32_t>(in_extension));
        weighted_sound[i] += term;
        BigInt denominator = total;
        denominator.MulU32(static_cast<uint32_t>(world_size));
        expected_completeness[i] += BigInt::RatioToDouble(term, denominator);
      } else if (world_size == 0) {
        // φᵢ(D) = ∅: vacuously complete in this world.
        expected_completeness[i] += BigInt::RatioToDouble(weight, total);
      }
    }
  }

  std::vector<SourceConsensus> consensus;
  consensus.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const IdentityInstance::SourceConstraint& constraint =
        instance.constraints()[i];
    SourceConsensus entry;
    entry.name = constraint.name;
    entry.claimed_soundness = constraint.soundness.ToDouble();
    entry.claimed_completeness = constraint.completeness.ToDouble();
    if (constraint.extension_size > 0) {
      BigInt denominator = total;
      denominator.MulU32(static_cast<uint32_t>(constraint.extension_size));
      entry.expected_soundness =
          BigInt::RatioToDouble(weighted_sound[i], denominator);
    }
    entry.expected_completeness =
        std::clamp(expected_completeness[i], 0.0, 1.0);
    entry.soundness_slack =
        entry.expected_soundness - entry.claimed_soundness;
    consensus.push_back(std::move(entry));
  }
  return consensus;
}

}  // namespace psc
