#include "psc/counting/linear_system.h"

#include "psc/util/string_util.h"

namespace psc {

Result<LinearSystem> LinearSystem::FromIdentityInstance(
    const IdentityInstance& instance) {
  LinearSystem system;
  const size_t n_vars = instance.universe().size();
  system.num_variables_ = n_vars;

  // membership[i][j]: is universe tuple j in source i's extension?
  const size_t n_sources = instance.num_sources();
  std::vector<std::vector<bool>> membership(
      n_sources, std::vector<bool>(n_vars, false));
  for (const IdentityInstance::Group& group : instance.groups()) {
    for (size_t i = 0; i < n_sources; ++i) {
      if ((group.signature & (uint64_t{1} << i)) == 0) continue;
      for (const size_t j : group.members) membership[i][j] = true;
    }
  }

  for (size_t i = 0; i < n_sources; ++i) {
    const IdentityInstance::SourceConstraint& constraint =
        instance.constraints()[i];
    LinearInequality completeness;
    completeness.coefficients.resize(n_vars);
    completeness.rhs = 0;
    completeness.label = StrCat(constraint.name, ":completeness>=",
                                constraint.completeness.ToString());
    const int64_t num = constraint.completeness.numerator();
    const int64_t den = constraint.completeness.denominator();
    LinearInequality soundness;
    soundness.coefficients.resize(n_vars);
    soundness.rhs = constraint.min_sound;
    soundness.label = StrCat(constraint.name, ":soundness>=",
                             constraint.soundness.ToString());
    for (size_t j = 0; j < n_vars; ++j) {
      if (membership[i][j]) {
        completeness.coefficients[j] = den - num;
        soundness.coefficients[j] = 1;
      } else {
        completeness.coefficients[j] = -num;
        soundness.coefficients[j] = 0;
      }
    }
    system.rows_.push_back(std::move(completeness));
    system.rows_.push_back(std::move(soundness));
  }
  return system;
}

bool LinearSystem::IsSatisfiedBy(uint64_t mask) const {
  for (const LinearInequality& row : rows_) {
    int64_t lhs = 0;
    for (size_t j = 0; j < row.coefficients.size(); ++j) {
      if ((mask >> j) & 1) lhs += row.coefficients[j];
    }
    if (lhs < row.rhs) return false;
  }
  return true;
}

namespace {

Status CheckVariableLimit(size_t num_variables) {
  if (num_variables <= LinearSystem::kMaxVariables) return Status::OK();
  return Status::ResourceExhausted(
      StrCat("brute-force counting over ", num_variables,
             " variables exceeds the limit of ", LinearSystem::kMaxVariables));
}

}  // namespace

Result<BigInt> LinearSystem::CountSolutionsBruteForce() const {
  PSC_RETURN_NOT_OK(CheckVariableLimit(num_variables_));
  BigInt count;
  const uint64_t limit = uint64_t{1} << num_variables_;
  for (uint64_t mask = 0; mask < limit; ++mask) {
    if (IsSatisfiedBy(mask)) count += BigInt(1);
  }
  return count;
}

Result<BigInt> LinearSystem::CountSolutionsWithFixed(size_t var,
                                                     bool value) const {
  if (var >= num_variables_) {
    return Status::InvalidArgument(
        StrCat("variable index ", var, " out of range (N=", num_variables_,
               ")"));
  }
  PSC_RETURN_NOT_OK(CheckVariableLimit(num_variables_));
  BigInt count;
  const uint64_t limit = uint64_t{1} << num_variables_;
  const uint64_t bit = uint64_t{1} << var;
  for (uint64_t mask = 0; mask < limit; ++mask) {
    if (((mask & bit) != 0) != value) continue;
    if (IsSatisfiedBy(mask)) count += BigInt(1);
  }
  return count;
}

std::string LinearSystem::ToString() const {
  std::vector<std::string> lines;
  for (const LinearInequality& row : rows_) {
    std::string lhs;
    bool first = true;
    for (size_t j = 0; j < row.coefficients.size(); ++j) {
      const int64_t c = row.coefficients[j];
      if (c == 0) continue;
      if (!first) lhs += c > 0 ? " + " : " - ";
      if (first && c < 0) lhs += "-";
      const int64_t abs_c = c < 0 ? -c : c;
      if (abs_c != 1) lhs += StrCat(abs_c, "·");
      lhs += StrCat("x", j + 1);
      first = false;
    }
    if (first) lhs = "0";
    lines.push_back(StrCat(lhs, " >= ", row.rhs, "    [", row.label, "]"));
  }
  return Join(lines, "\n");
}

}  // namespace psc
