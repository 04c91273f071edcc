#include "agreement/approx_spec.hpp"

#include "util/assert.hpp"

namespace apram {

RealRange range_of(std::span<const double> values) {
  RealRange r;
  for (const double v : values) r.extend(v);
  return r;
}

ApproxAgreementSpec::ApproxAgreementSpec(double epsilon) : epsilon_(epsilon) {
  APRAM_CHECK_MSG(epsilon > 0.0, "epsilon must be positive");
}

void ApproxAgreementSpec::add_input(double x) { in_range_.extend(x); }

bool ApproxAgreementSpec::try_output(double y) {
  if (in_range_.empty) return false;  // output before any input: unspecified
  RealRange candidate = out_range_;
  candidate.extend(y);
  if (!in_range_.contains(candidate)) return false;
  if (candidate.size() >= epsilon_) return false;
  out_range_ = candidate;
  return true;
}

}  // namespace apram
