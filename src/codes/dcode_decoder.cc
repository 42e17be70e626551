#include "codes/dcode_decoder.h"

#include <deque>

#include "codes/solve.h"
#include "util/modmath.h"

namespace dcode::codes {

ChainDecodeResult dcode_decode_two_disks(Stripe& stripe, int f1, int f2) {
  const CodeLayout& layout = stripe.layout();
  DCODE_CHECK(layout.name() == "dcode",
              "dcode_decode_two_disks requires a D-Code stripe");
  DCODE_CHECK(f1 != f2, "two distinct failed disks required");
  DCODE_CHECK(f1 >= 0 && f1 < layout.cols() && f2 >= 0 && f2 < layout.cols(),
              "failed disk out of range");

  const int n = layout.cols();
  ChainDecodeResult result;

  // Unknown tracking.
  std::vector<uint8_t> unknown(static_cast<size_t>(layout.rows()) * n, 0);
  auto idx = [&](Element e) {
    return static_cast<size_t>(e.row) * n + e.col;
  };
  int remaining = 0;
  for (int r = 0; r < layout.rows(); ++r) {
    unknown[idx(make_element(r, f1))] = 1;
    unknown[idx(make_element(r, f2))] = 1;
    remaining += 2;
  }

  const auto& eqs = layout.equations();
  std::vector<int> missing(eqs.size(), 0);
  for (size_t qi = 0; qi < eqs.size(); ++qi) {
    if (unknown[idx(eqs[qi].parity)]) ++missing[qi];
    for (const Element& e : eqs[qi].sources) {
      if (unknown[idx(e)]) ++missing[qi];
    }
  }

  // Seed the queue in the paper's order: the four corner parities first
  // (their equations are the ones missing exactly one element for a
  // generic failure pair), then everything else that is ready.
  std::deque<int> ready;
  std::vector<uint8_t> queued(eqs.size(), 0);
  // Chain continuations go to the front (depth-first along the chain, the
  // paper's order); fresh seeds go to the back.
  auto enqueue = [&](int qi, bool front) {
    if (!queued[static_cast<size_t>(qi)] &&
        missing[static_cast<size_t>(qi)] == 1) {
      queued[static_cast<size_t>(qi)] = 1;
      if (front) {
        ready.push_front(qi);
      } else {
        ready.push_back(qi);
      }
    }
  };
  // Horizontal parity of column c stores equation c (equations 0..n-1 are
  // horizontal by construction order, n..2n-1 deployment).
  const int corners[4] = {
      /* P[n-2][f1-1] */ pmod(f1 - 1, n),
      /* P[n-2][f2-1] */ pmod(f2 - 1, n),
      /* P[n-1][f1+1] */ n + pmod(f1 + 1, n),
      /* P[n-1][f2+1] */ n + pmod(f2 + 1, n),
  };
  for (int qi : corners) enqueue(qi, /*front=*/false);
  for (size_t qi = 0; qi < eqs.size(); ++qi)
    enqueue(static_cast<int>(qi), /*front=*/false);

  while (!ready.empty()) {
    int qi = ready.front();
    ready.pop_front();
    queued[static_cast<size_t>(qi)] = 0;
    if (missing[static_cast<size_t>(qi)] != 1) continue;

    const Equation& q = eqs[static_cast<size_t>(qi)];
    Element target = q.parity;
    if (!unknown[idx(target)]) {
      for (const Element& e : q.sources) {
        if (unknown[idx(e)]) {
          target = e;
          break;
        }
      }
    }

    result.xor_ops += solve(q, target, stripe) - 1;
    result.sequence.push_back(ChainStep{target, qi});

    unknown[idx(target)] = 0;
    --remaining;
    for (int mq : layout.equations_containing(target.row, target.col)) {
      --missing[static_cast<size_t>(mq)];
      enqueue(mq, /*front=*/true);
    }
  }

  result.success = remaining == 0;
  return result;
}

}  // namespace dcode::codes
