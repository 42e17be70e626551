// The shared stripe-repair steps. Every site that rebuilds a stripe from
// what is trustworthy composes the same three steps and keeps only its
// own policy:
//
//   read_live_columns  — every row of every column live for the stripe,
//                        engine-verified or raw; dead columns marked;
//   classify_stripe    — each live element against the checksum sidecar:
//                        corrupt, misdirected and stale ones distrusted;
//   decode_erasures    — dead ∪ distrusted decoded as one erasure set,
//                        re-derived survivors re-verified against the
//                        sidecar, everything rolled back on a rejection.
//
// (reconstruct_distrusted is the equation-at-a-time variant of the last
// step, for stripes whose condemned elements each still have an equation
// of trusted members; it, the rebuild's minimal-read plan and the
// degraded plans all re-derive one element through one equation with
// codes::solve.) The policies on top:
//
//   scrub    — syndrome localisation and the stale-stripe rules (scrub.cc)
//   clean    — parity re-encode of the mid-update window (scrub.cc)
//   salvage  — overlay of the caller's data plus re-encode (scrub.cc)
//   degraded — whole-stripe loads for degraded writes (this file)
//   journal  — re-encode plus sidecar resync (array_journal.cc)
//   rebuild  — write the decoded columns and repaired survivors
//              (background_rebuild.cc)
#include <algorithm>
#include <cstring>
#include <vector>

#include "codes/decoder.h"
#include "codes/solve.h"
#include "codes/stripe.h"
#include "raid/raid6_array.h"

namespace dcode::raid {

using codes::CodeLayout;
using codes::Element;
using codes::Equation;

namespace {

// Re-verification: `p` passes as element `e` of `stripe` when the sidecar
// calls it current (or has no record of it).
bool reverifies(const StripeIoEngine& engine, const AddressMap& map,
                int64_t stripe, Element e, const uint8_t* p) {
  const IntegrityVerdict v = engine.classify_element(
      map.physical_disk(stripe, e.col), stripe, e.row, p);
  return v == IntegrityVerdict::kOk || v == IntegrityVerdict::kUntracked;
}

}  // namespace

Raid6Array::StripeScratch::StripeScratch(const CodeLayout& layout,
                                         size_t element_size)
    : s(layout, element_size),
      dead(static_cast<size_t>(layout.cols()), 0),
      distrust(static_cast<size_t>(layout.rows() * layout.cols()), 0) {}

int64_t Raid6Array::read_live_columns(int64_t stripe, StripeScratch& w,
                                      bool verify) {
  const CodeLayout& layout = *layout_;
  w.any_dead = false;
  w.rops.clear();
  std::fill(w.distrust.begin(), w.distrust.end(), 0);
  for (int c = 0; c < layout.cols(); ++c) {
    const int pd = map_.physical_disk(stripe, c);
    // Per-stripe degradedness: a rebuilding disk is live for stripes
    // below its watermark, so a partially rebuilt spare contributes the
    // data it already has instead of forcing a decode.
    const bool dead = disk_degraded_for_stripe(pd, stripe);
    w.dead[static_cast<size_t>(c)] = dead ? 1 : 0;
    w.any_dead = w.any_dead || dead;
    if (dead) continue;
    for (int r = 0; r < layout.rows(); ++r) {
      w.rops.push_back({pd, stripe, r, w.s.at(r, c)});
    }
  }
  engine_.read_batch(w.rops, verify);
  return static_cast<int64_t>(w.rops.size());
}

int64_t Raid6Array::classify_stripe(int64_t stripe, StripeScratch& w,
                                    int64_t* stale) const {
  const CodeLayout& layout = *layout_;
  int64_t condemned = 0;
  for (int c = 0; c < layout.cols(); ++c) {
    if (w.dead[static_cast<size_t>(c)] != 0) continue;
    const int pd = map_.physical_disk(stripe, c);
    for (int r = 0; r < layout.rows(); ++r) {
      const IntegrityVerdict v =
          engine_.classify_element(pd, stripe, r, w.s.at(r, c));
      if (v != IntegrityVerdict::kCorrupt &&
          v != IntegrityVerdict::kMisdirected &&
          v != IntegrityVerdict::kStale) {
        continue;
      }
      w.distrusted(codes::make_element(r, c)) = 1;
      ++condemned;
      if (v == IntegrityVerdict::kStale && stale != nullptr) ++*stale;
    }
  }
  return condemned;
}

// A reconstruction through an equation that itself holds an undetected
// wrong value would manufacture garbage, so each candidate must
// re-verify. Accepted elements become trusted members for later
// equations, so multi-element damage (e.g. a misdirected write's victim
// AND its intended target) repairs iteratively.
std::vector<Element> Raid6Array::reconstruct_distrusted(
    int64_t stripe, StripeScratch& w) const {
  const CodeLayout& layout = *layout_;
  std::vector<Element> repaired;
  std::vector<uint8_t> saved(element_size_);
  bool progress = true;
  while (progress) {
    progress = false;
    for (const Equation& q : layout.equations()) {
      Element target{};
      int distrusted_members = 0;
      bool usable = true;
      auto consider = [&](const Element& m) {
        if (w.dead[static_cast<size_t>(m.col)] != 0) {
          usable = false;
          return;
        }
        if (w.distrusted(m) != 0) {
          target = m;
          ++distrusted_members;
        }
      };
      consider(q.parity);
      for (const Element& src : q.sources) consider(src);
      if (!usable || distrusted_members != 1) continue;
      uint8_t* dst = w.s.at(target);
      std::memcpy(saved.data(), dst, element_size_);
      codes::solve(q, target, w.s);
      if (!reverifies(engine_, map_, stripe, target, dst)) {
        std::memcpy(dst, saved.data(), element_size_);
        continue;
      }
      w.distrusted(target) = 0;
      repaired.push_back(target);
      progress = true;
    }
  }
  return repaired;
}

bool Raid6Array::decode_erasures(int64_t stripe, StripeScratch& w) const {
  const CodeLayout& layout = *layout_;
  w.lost.clear();
  w.repaired.clear();
  for (int c = 0; c < layout.cols(); ++c) {
    for (int r = 0; r < layout.rows(); ++r) {
      const Element e = codes::make_element(r, c);
      if (w.dead[static_cast<size_t>(c)] != 0) {
        w.lost.push_back(e);
      } else if (w.distrusted(e) != 0) {
        w.lost.push_back(e);
        w.repaired.push_back(e);
      }
    }
  }
  if (w.lost.empty()) return true;
  std::vector<std::vector<uint8_t>> saved;
  saved.reserve(w.repaired.size());
  for (const Element& e : w.repaired) {
    saved.emplace_back(w.s.at(e), w.s.at(e) + element_size_);
  }
  auto roll_back = [&] {
    for (size_t i = 0; i < w.repaired.size(); ++i) {
      std::memcpy(w.s.at(w.repaired[i]), saved[i].data(), element_size_);
    }
    w.repaired.clear();
    return false;
  };
  if (!codes::hybrid_decode(w.s, w.lost).success) return roll_back();
  for (const Element& e : w.repaired) {
    if (!reverifies(engine_, map_, stripe, e, w.s.at(e))) return roll_back();
  }
  for (const Element& e : w.repaired) w.distrusted(e) = 0;
  return true;
}

void Raid6Array::load_stripe_degraded(int64_t stripe, StripeScratch& w,
                                      bool verify) {
  read_live_columns(stripe, w, verify);
  if (!w.any_dead) return;
  DCODE_CHECK(decode_erasures(stripe, w),
              "stripe unrecoverable (more than two failures)");
  metrics_.elements_reconstructed->inc(static_cast<int64_t>(w.lost.size()));
}

}  // namespace dcode::raid
