// Generic erasure decoders over parity equations.
//
// Two strategies, one contract: given a stripe whose elements at the
// `lost` positions are unknown (buffer contents ignored), reconstruct them
// from the surviving elements.
//
//  * Peeling: repeatedly find an equation with exactly one lost member and
//    solve it with one fused XOR — peel_schedule's steps, applied with
//    solve (codes/solve.h). O(equations) per round, optimal I/O, and
//    sufficient for every double *disk* failure of the pure XOR codes
//    (D-Code, X-Code, RDP, H-Code, HDP).
//  * Gaussian elimination over GF(2): treats lost elements as unknowns and
//    the full equation set as a linear system with buffer-valued right-hand
//    sides. Slower, but complete: it recovers anything recoverable, which
//    makes it (a) the fallback when peeling stalls (EVENODD's S-coupled
//    diagonals) and (b) the oracle our MDS-property tests use to validate
//    every construction exhaustively.
#pragma once

#include <span>
#include <vector>

#include "codes/stripe.h"

namespace dcode::codes {

struct DecodeResult {
  bool success = false;
  // Element-level XOR ops spent (one per source element consumed).
  size_t xor_ops = 0;
  // Peeling rounds or GE eliminations — diagnostic only.
  size_t steps = 0;
};

// `lost` lists the unknown elements (typically all elements of 1–2 disks).
// On success their buffers contain the reconstructed content.
DecodeResult peel_decode(Stripe& stripe, std::span<const Element> lost);

DecodeResult ge_decode(Stripe& stripe, std::span<const Element> lost);

// Peeling first, GE for whatever peeling could not reach (the schedule's
// unreached elements).
DecodeResult hybrid_decode(Stripe& stripe, std::span<const Element> lost);

// Convenience: all elements on the given failed disks.
std::vector<Element> elements_of_disks(const CodeLayout& layout,
                                       std::span<const int> disks);

// Dry-run feasibility check (no buffers touched): can `lost` be recovered?
// The rank test behind ge_decode, kept as the oracle the exhaustive MDS
// tests check every construction against.
bool is_recoverable(const CodeLayout& layout, std::span<const Element> lost);

}  // namespace dcode::codes
