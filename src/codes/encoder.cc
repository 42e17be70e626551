#include "codes/encoder.h"

#include "codes/solve.h"

namespace dcode::codes {

void encode_equations(Stripe& stripe, std::span<const int> equation_indices) {
  const auto& eqs = stripe.layout().equations();
  for (int qi : equation_indices) {
    const Equation& q = eqs[static_cast<size_t>(qi)];
    solve(q, q.parity, stripe);
  }
}

void encode_stripe(Stripe& stripe) {
  encode_equations(stripe, stripe.layout().encode_order());
}

size_t encode_xor_count(const CodeLayout& layout) {
  size_t n = 0;
  for (const Equation& q : layout.equations()) {
    n += q.sources.size() - 1;
  }
  return n;
}

}  // namespace dcode::codes
