// Parity scrub: verify every XOR equation of every stripe, tolerate
// degraded arrays, and (in repair mode) localize and rewrite
// single-element silent corruption.
//
// Two localization channels, tried in order:
//
//  * Checksum sidecar (ScrubOptions::use_checksums, the default): each
//    element's payload is classified against its recorded checksum +
//    write-identity tag, so a
//    corrupt/misdirected/stale element is condemned DIRECTLY — no
//    syndrome agreement needed. Condemned elements are reconstructed
//    from any surviving equation whose other members are trusted,
//    re-verified against the sidecar, and written back. This repairs
//    cases the parity-only channel must give up on (several corrupt
//    elements, disagreeing families) and is the only channel that sees
//    whole-stripe stale writes (parity-consistent rollbacks).
//
//  * Parity syndromes: a single corrupted element with XOR delta D
//    leaves exactly the equations that contain it unsatisfied, each with
//    syndrome D. The membership sets are distinct per element (a row and
//    a diagonal intersect in one cell; parities own their equation), so
//    "unsatisfied set == membership set, all syndromes equal" pins the
//    corruption to one element and D is the repair patch. Anything else
//    is unrepairable from parity alone — reported split by reason:
//    degraded equations (a member disk is dead) vs family disagreement.
//    The sidecar has no record of a never-written (kUntracked) element,
//    so this channel is the only one that repairs one.
//
// Scrub takes NO stripe locks: its chunks run on the same pool user
// writes fan out over, so blocking a pool worker on a stripe lock held
// by a writer that is itself waiting for pool workers would deadlock.
// Callers quiesce writes and rebuild first (see scrub_report() docs).
//
// The write path's two integrity repairs live here too. Both, like
// scrub, are policy over the shared steps in stripe_repair.cc (read the
// live columns, classify them, decode the condemned): clean re-encodes
// parity left behind by a mid-update stripe, salvage overlays the
// caller's data and re-encodes the whole stripe.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>

#include "codes/encoder.h"
#include "codes/solve.h"
#include "codes/stripe.h"
#include "obs/trace.h"
#include "raid/raid6_array.h"
#include "xorops/xor_region.h"

namespace dcode::raid {

using codes::CodeLayout;
using codes::Element;
using codes::Equation;
using codes::Stripe;

using ReadOp = StripeIoEngine::ReadOp;
using WriteOp = StripeIoEngine::WriteOp;

namespace {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Whether equation `q` holds in `s`. `syndrome` receives the XOR of all
// its members (the parity solved from its sources, folded with the
// stored one): zero when it holds, else the patch that repairs a single
// corrupt member.
bool equation_holds(const Equation& q, Stripe& s, uint8_t* syndrome) {
  const size_t len = s.element_size();
  codes::solve(
      q, q.parity,
      [&](Element e) { return e == q.parity ? syndrome : s.at(e); }, len);
  xorops::xor_into(syndrome, s.at(q.parity), len);
  return xorops::is_zero(syndrome, len);
}

}  // namespace

int64_t Raid6Array::scrub() {
  return static_cast<int64_t>(scrub_report().inconsistent_stripes.size());
}

ScrubReport Raid6Array::scrub_report(ScrubOptions options) {
  ensure_online();
  const CodeLayout& layout = *layout_;
  const int64_t t0 = now_ns();
  metrics_.scrubs->inc();
  const bool use_ck = options.use_checksums;
  obs::Span span(obs::TraceLog::global(), "scrub",
                 {{"stripes", stripes_},
                  {"repair", options.repair},
                  {"checksums", use_ck}});
  ScrubReport report;
  report.stripes_checked = stripes_;
  const auto& equations = layout.equations();
  std::mutex agg_mu;
  pool_.parallel_for_chunked(
      static_cast<size_t>(stripes_), [&](size_t begin, size_t end) {
        StripeScratch w(layout, element_size_);
        Stripe& s = w.s;
        const std::vector<char>& dead = w.dead;
        std::vector<uint8_t> syndrome(element_size_);
        std::vector<uint8_t> delta(element_size_);
        std::vector<int> bad;
        ScrubReport local;
        for (size_t st = begin; st < end; ++st) {
          const int64_t stripe = static_cast<int64_t>(st);
          // Per-stripe retry: a disk can fail (or escalate through its
          // health budget and get a spare promoted) while this stripe is
          // being read — the engine surfaces that as DiskFailedError.
          // Retry from scratch with a fresh dead set so the lost disk's
          // equations are skipped; stripe-local tallies merge into the
          // chunk report only on success, so a retry never double-counts.
          for (int attempt = 0;; ++attempt) {
            ScrubReport tally;
            try {
              // Raw reads: scrub judges the bytes itself, so
              // verify-on-read must not veto them first.
              read_live_columns(stripe, w, /*verify=*/false);
              const bool any_dead = w.any_dead;

              // Checksum channel: classify every live element against
              // the sidecar before any parity math.
              const int64_t distrusted =
                  use_ck ? classify_stripe(stripe, w, &tally.elements_stale)
                         : 0;
              const int64_t corrupt_distrusted =
                  distrusted - tally.elements_stale;
              tally.checksum_mismatches = distrusted;

              // Erasure-decode fallback for degraded stripes: when the
              // sidecar condemns elements whose covering equations are
              // all dead-skipped (or single-equation reconstruction
              // stalls), treat dead columns AND distrusted elements as
              // one erasure set. The decode re-verifies candidates
              // against the sidecar and rolls back on any rejection, so
              // the stripe stays reported instead of silently wrong.
              auto decode_through_degraded = [&](ScrubReport& t) {
                if (std::find(w.distrust.begin(), w.distrust.end(), 1) ==
                        w.distrust.end() ||
                    !decode_erasures(stripe, w)) {
                  return false;
                }
                for (const Element& e : w.repaired) {
                  engine_.write_element(map_.physical_disk(stripe, e.col),
                                        stripe, e.row, s.at(e));
                  ++t.elements_located;
                  ++t.elements_checksum_located;
                  ++t.elements_repaired;
                }
                return true;
              };

              // Evaluate every parity equation. The first pass counts
              // into the tally; re-evaluations after a checksum repair
              // only refresh `bad`/`delta`.
              bool deltas_agree = true;
              auto evaluate = [&](bool count) {
                bad.clear();
                deltas_agree = true;
                for (size_t qi = 0; qi < equations.size(); ++qi) {
                  const Equation& eq = equations[qi];
                  bool skip = dead[static_cast<size_t>(eq.parity.col)] != 0;
                  for (const Element& src : eq.sources) {
                    skip = skip || dead[static_cast<size_t>(src.col)] != 0;
                  }
                  if (skip) {
                    if (count) ++tally.equations_skipped;
                    continue;
                  }
                  if (count) ++tally.equations_checked;
                  if (equation_holds(eq, s, syndrome.data())) continue;
                  if (bad.empty()) {
                    std::memcpy(delta.data(), syndrome.data(),
                                element_size_);
                  } else if (std::memcmp(delta.data(), syndrome.data(),
                                         element_size_) != 0) {
                    deltas_agree = false;
                  }
                  bad.push_back(static_cast<int>(qi));
                }
              };
              evaluate(/*count=*/true);

              if (bad.empty()) {
                if (distrusted > 0 && corrupt_distrusted == 0) {
                  // Every evaluable equation holds, yet the sidecar says
                  // the content is old: a whole-stripe rollback (the
                  // write of data AND parity lost together) — invisible
                  // to parity, and redundancy holds no newer copy, so
                  // this is reportable, never repairable. Repair mode
                  // accepts the rollback and resyncs the sidecar so
                  // reads stop condemning bytes nothing can improve; the
                  // report row is the only remaining trace.
                  tally.stale_stripes.push_back(stripe);
                  if (options.repair) {
                    for (int c = 0; c < layout.cols(); ++c) {
                      if (dead[static_cast<size_t>(c)] != 0) continue;
                      const int pd = map_.physical_disk(stripe, c);
                      for (int r = 0; r < layout.rows(); ++r) {
                        engine_.resync_element_integrity(pd, stripe, r,
                                                         s.at(r, c));
                      }
                    }
                  }
                } else if (distrusted > 0) {
                  // Corrupt/misdirected verdicts while every evaluable
                  // equation holds: real damage hidden behind
                  // dead-skipped equations (or a parity-consistent
                  // foreign image). NOT a rollback — resyncing would
                  // bless wrong bytes. Report it, and in repair mode
                  // erase-decode through the dead columns; sidecar
                  // re-verification gates the writes.
                  tally.inconsistent_stripes.push_back(stripe);
                  if (options.repair && !decode_through_degraded(tally)) {
                    ++tally.stripes_unrepairable;
                    ++(any_dead ? tally.stripes_skipped_degraded
                                : tally.stripes_family_disagreement);
                  }
                }
              } else {
                tally.inconsistent_stripes.push_back(stripe);
                if (options.repair) {
                  bool fixed = false;
                  if (distrusted > 0) {
                    // Checksum-assisted localization first: the sidecar
                    // names the condemned elements directly, so repair
                    // works even where the two families' syndromes
                    // disagree (several corrupt elements).
                    const std::vector<Element> found =
                        reconstruct_distrusted(stripe, w);
                    for (const Element& e : found) {
                      engine_.write_element(
                          map_.physical_disk(stripe, e.col), stripe, e.row,
                          s.at(e));
                      ++tally.elements_located;
                      ++tally.elements_checksum_located;
                      ++tally.elements_repaired;
                    }
                    if (!found.empty()) evaluate(/*count=*/false);
                    fixed = bad.empty();
                    if (!fixed && any_dead && decode_through_degraded(tally)) {
                      // Equation-at-a-time reconstruction stalled on
                      // dead-skipped equations; the erasure decode
                      // recovered the condemned elements.
                      evaluate(/*count=*/false);
                      fixed = bad.empty();
                    }
                  }
                  if (!fixed && (any_dead || !deltas_agree)) {
                    // Skipped equations make the membership comparison
                    // unsound; disagreeing deltas mean >1 corrupt
                    // element — beyond the parity-only channel.
                    ++tally.stripes_unrepairable;
                    ++(any_dead ? tally.stripes_skipped_degraded
                                : tally.stripes_family_disagreement);
                  } else if (!fixed) {
                    // `bad` is ascending by construction and membership
                    // lists are built in equation order, so set equality
                    // is a straight vector compare.
                    int hits = 0;
                    Element culprit{};
                    for (int c = 0; c < layout.cols() && hits < 2; ++c) {
                      for (int r = 0; r < layout.rows() && hits < 2; ++r) {
                        if (layout.equations_containing(r, c) == bad) {
                          culprit = codes::make_element(r, c);
                          ++hits;
                        }
                      }
                    }
                    if (hits != 1) {
                      ++tally.stripes_unrepairable;
                      ++tally.stripes_family_disagreement;
                    } else {
                      ++tally.elements_located;
                      xorops::xor_into(s.at(culprit), delta.data(),
                                       element_size_);
                      engine_.write_element(
                          map_.physical_disk(stripe, culprit.col), stripe,
                          culprit.row, s.at(culprit));
                      ++tally.elements_repaired;
                    }
                  }
                }
              }
            } catch (const DiskFailedError&) {
              if (attempt >= 4) throw;
              continue;
            }
            local.merge(tally);
            break;
          }
        }
        std::lock_guard<std::mutex> lock(agg_mu);
        report.merge(local);
      });
  std::sort(report.inconsistent_stripes.begin(),
            report.inconsistent_stripes.end());
  std::sort(report.stale_stripes.begin(), report.stale_stripes.end());
  metrics_.scrub_stripes_checked->inc(stripes_);
  metrics_.scrub_stripes_inconsistent->inc(
      static_cast<int64_t>(report.inconsistent_stripes.size()));
  metrics_.scrub_equations_skipped->inc(report.equations_skipped);
  metrics_.scrub_elements_located->inc(report.elements_located);
  metrics_.scrub_elements_repaired->inc(report.elements_repaired);
  metrics_.scrub_stripes_unrepairable->inc(report.stripes_unrepairable);
  metrics_.scrub_stripes_skipped_degraded->inc(
      report.stripes_skipped_degraded);
  metrics_.scrub_family_disagreements->inc(
      report.stripes_family_disagreement);
  metrics_.scrub_checksum_located->inc(report.elements_checksum_located);
  metrics_.scrub_elements_stale->inc(report.elements_stale);
  metrics_.scrub_stripes_stale->inc(
      static_cast<int64_t>(report.stale_stripes.size()));
  metrics_.scrub_latency_ns->observe(now_ns() - t0);
  if (!report.inconsistent_stripes.empty()) {
    span.note("scrub.inconsistent",
              {{"count",
                static_cast<int64_t>(report.inconsistent_stripes.size())},
               {"repaired", report.elements_repaired},
               {"checksum_located", report.elements_checksum_located},
               {"unrepairable", report.stripes_unrepairable}});
  }
  if (!report.stale_stripes.empty()) {
    span.note("scrub.stale",
              {{"stripes", static_cast<int64_t>(report.stale_stripes.size())},
               {"elements", report.elements_stale}});
  }
  return report;
}

void Raid6Array::clean_stripe_integrity(int64_t stripe) {
  const CodeLayout& layout = *layout_;
  obs::Span span(obs::TraceLog::global(), "integrity.clean_stripe",
                 {{"stripe", stripe}});
  StripeScratch w(layout, element_size_);
  read_live_columns(stripe, w, /*verify=*/false);
  const int64_t condemned = classify_stripe(stripe, w);
  std::vector<Element> repaired = reconstruct_distrusted(stripe, w);
  // Data is authoritative for derived parity: an equation whose members
  // are all live and trusted but which still fails can only be the
  // mid-update window (the data writes landed, the parity catch-up write
  // never did because verify condemned its pre-read) — re-encode that
  // parity from its sources so the retried RMW starts from a consistent
  // stripe.
  auto trusted = [&](const Element& m) {
    return w.dead[static_cast<size_t>(m.col)] == 0 && w.distrusted(m) == 0;
  };
  std::vector<uint8_t> syndrome(element_size_);
  for (const Equation& q : layout.equations()) {
    if (!trusted(q.parity) ||
        !std::all_of(q.sources.begin(), q.sources.end(), trusted)) {
      continue;
    }
    if (equation_holds(q, w.s, syndrome.data())) continue;
    codes::solve(q, q.parity, w.s);
    repaired.push_back(q.parity);
  }
  for (const Element& e : repaired) {
    engine_.write_element(map_.physical_disk(stripe, e.col), stripe, e.row,
                          w.s.at(e));
  }
  if (!repaired.empty()) metrics_.integrity_write_repairs->inc();
  span.note("integrity.clean_stripe.done",
            {{"condemned", condemned},
             {"repaired", static_cast<int64_t>(repaired.size())}});
}

void Raid6Array::salvage_stripe_rewrite(int64_t stripe, int64_t g,
                                        int64_t stripe_end, int64_t offset,
                                        std::span<const uint8_t> data) {
  // Why clean_stripe_integrity alone is not enough: a misdirected data
  // write caught at the RMW parity pre-read leaves the stripe with new
  // data on the healthy columns, a condemned victim column, and parity
  // that is still uniformly pre-update. Every equation through the
  // victim then mixes old parity with new data, so reconstruction
  // candidates can never re-verify — the in-place repair loops without
  // progress. The caller's buffer breaks the deadlock: salvage the old
  // bytes that are still derivable, overlay the incoming data, re-encode
  // parity from the data alone and rewrite the stripe, refreshing every
  // sidecar record.
  const CodeLayout& layout = *layout_;
  obs::Span span(obs::TraceLog::global(), "integrity.salvage_rewrite",
                 {{"stripe", stripe}});
  StripeScratch w(layout, element_size_);
  Stripe& s = w.s;
  read_live_columns(stripe, w, /*verify=*/false);
  classify_stripe(stripe, w);
  // Condemned elements whose pre-update payload is still derivable come
  // back through equations with trusted members; each candidate is
  // re-verified against the sidecar, so mid-update parity cannot fake a
  // salvage.
  const std::vector<Element> salvaged = reconstruct_distrusted(stripe, w);
  // Parity is recomputed from the data below, so condemned parity needs
  // no old bytes (a dead column's decode below still routes around it);
  // neither does a data element the incoming write covers wholesale.
  // Anything else still distrusted is genuinely gone — refuse rather
  // than hand the caller silent garbage.
  std::vector<Element> condemned_parities;
  for (const Equation& q : layout.equations()) {
    if (w.distrusted(q.parity) == 0) continue;
    condemned_parities.push_back(q.parity);
    w.distrusted(q.parity) = 0;
  }
  const bool garbage_left =
      std::find(w.distrust.begin(), w.distrust.end(), 1) != w.distrust.end();
  for (int64_t e = g; e <= stripe_end; ++e) {
    size_t eb, sb, len;
    overlay_range(e, offset, static_cast<int64_t>(data.size()),
                  static_cast<int64_t>(element_size_), &eb, &sb, &len);
    if (len == element_size_) w.distrusted(map_.locate(e).element) = 0;
  }
  for (int c = 0; c < layout.cols(); ++c) {
    for (int r = 0; r < layout.rows(); ++r) {
      if (w.distrusted(codes::make_element(r, c)) != 0) {
        throw ElementIntegrityError(map_.physical_disk(stripe, c), stripe, r,
                                    IntegrityVerdict::kCorrupt);
      }
    }
  }
  if (w.any_dead) {
    // Decoding a dead column folds parity, which is only sound when the
    // surviving stripe is internally consistent (pre-update). Mid-update
    // or residual-garbage state cannot be decoded through — refuse
    // instead of writing back a silently wrong reconstruction.
    if (garbage_left) {
      throw ElementIntegrityError(map_.physical_disk(stripe, 0), stripe, 0,
                                  IntegrityVerdict::kCorrupt);
    }
    // A condemned parity is an erasure of the decode, not a member.
    for (const Element& p : condemned_parities) w.distrusted(p) = 1;
    auto trusted = [&](const Element& m) {
      return w.dead[static_cast<size_t>(m.col)] == 0 && w.distrusted(m) == 0;
    };
    std::vector<uint8_t> syndrome(element_size_);
    for (const Equation& q : layout.equations()) {
      if (!trusted(q.parity) ||
          !std::all_of(q.sources.begin(), q.sources.end(), trusted)) {
        continue;
      }
      if (!equation_holds(q, s, syndrome.data())) {
        throw ElementIntegrityError(map_.physical_disk(stripe, q.parity.col),
                                    stripe, q.parity.row,
                                    IntegrityVerdict::kCorrupt);
      }
    }
    // A re-derived condemned parity must re-verify, so a decode through
    // mid-update state is refused here too.
    if (!decode_erasures(stripe, w)) {
      DCODE_CHECK(!condemned_parities.empty(),
                  "stripe unrecoverable (more than two failures)");
      const Element p = condemned_parities.front();
      throw ElementIntegrityError(map_.physical_disk(stripe, p.col), stripe,
                                  p.row, IntegrityVerdict::kCorrupt);
    }
    metrics_.elements_reconstructed->inc(static_cast<int64_t>(w.lost.size()));
  }
  for (int64_t e = g; e <= stripe_end; ++e) {
    const auto loc = map_.locate(e);
    size_t eb, sb, len;
    overlay_range(e, offset, static_cast<int64_t>(data.size()),
                  static_cast<int64_t>(element_size_), &eb, &sb, &len);
    std::memcpy(s.at(loc.element) + eb, data.data() + sb, len);
  }
  codes::encode_stripe(s);
  // Rewrite every live element: exactly the set read_live_columns read.
  std::vector<WriteOp> wops;
  for (const ReadOp& op : w.rops) {
    wops.push_back({op.disk, op.stripe, op.row, op.dst});
  }
  engine_.write_batch(wops);
  metrics_.integrity_write_repairs->inc();
  span.note("integrity.salvage_rewrite.done",
            {{"salvaged", static_cast<int64_t>(salvaged.size())},
             {"writes", static_cast<int64_t>(wops.size())}});
}

}  // namespace dcode::raid
