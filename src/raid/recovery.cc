#include "raid/recovery.h"

#include <algorithm>
#include <vector>

#include "util/check.h"

namespace dcode::raid {

namespace {

using codes::CodeLayout;
using codes::Element;
using codes::Equation;

// Word-packed bitset over stripe cells for fast unions during the search.
class CellSet {
 public:
  explicit CellSet(size_t cells) : words_((cells + 63) / 64, 0) {}

  void add(size_t cell) { words_[cell >> 6] |= 1ull << (cell & 63); }

  void merge(const CellSet& other) {
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  }

  size_t count() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(__builtin_popcountll(w));
    return n;
  }

  void collect(const CodeLayout& layout, std::vector<Element>* out) const {
    for (size_t cell = 0; cell < static_cast<size_t>(layout.rows()) *
                                     layout.cols();
         ++cell) {
      if (words_[cell >> 6] & (1ull << (cell & 63))) {
        out->push_back(codes::make_element(
            static_cast<int>(cell / layout.cols()),
            static_cast<int>(cell % layout.cols())));
      }
    }
  }

 private:
  std::vector<uint64_t> words_;
};

// The elements an equation reads to rebuild `target` (everything but it).
CellSet equation_reads(const CodeLayout& layout, const Equation& q,
                       Element target) {
  CellSet s(static_cast<size_t>(layout.rows()) * layout.cols());
  auto add = [&](Element e) {
    if (e != target)
      s.add(static_cast<size_t>(e.row) * layout.cols() + e.col);
  };
  add(q.parity);
  for (const Element& e : q.sources) add(e);
  return s;
}

}  // namespace

RecoveryPlan plan_single_disk_recovery(const CodeLayout& layout,
                                       int failed_disk,
                                       RecoveryStrategy strategy) {
  DCODE_CHECK(failed_disk >= 0 && failed_disk < layout.cols(),
              "failed disk out of range");
  const size_t ncells = static_cast<size_t>(layout.rows()) * layout.cols();

  // Lost elements, split into those with a real choice (two usable
  // equations) and those without.
  struct Lost {
    Element element;
    std::vector<int> eqs;               // usable equations
    std::vector<CellSet> reads_per_eq;  // read set of each choice
  };
  std::vector<Lost> lost;
  for (int r = 0; r < layout.rows(); ++r) {
    Element e = codes::make_element(r, failed_disk);
    Lost entry{e, {}, {}};
    for (int qi : layout.equations_containing(e.row, e.col)) {
      const Equation& q = layout.equations()[static_cast<size_t>(qi)];
      // Usable only if no *other* member sits on the failed disk.
      bool usable = true;
      auto check = [&](Element m) {
        if (m != e && m.col == failed_disk) usable = false;
      };
      check(q.parity);
      for (const Element& m : q.sources) check(m);
      if (usable) {
        entry.eqs.push_back(qi);
        entry.reads_per_eq.push_back(equation_reads(layout, q, e));
      }
    }
    DCODE_CHECK(!entry.eqs.empty(),
                "single-disk loss must be recoverable per element");
    lost.push_back(std::move(entry));
  }

  std::vector<size_t> choice(lost.size(), 0);

  if (strategy == RecoveryStrategy::kMinimalReads) {
    // Indices with an actual alternative.
    std::vector<size_t> free_idx;
    for (size_t i = 0; i < lost.size(); ++i) {
      if (lost[i].eqs.size() > 1) free_idx.push_back(i);
    }

    auto total_reads = [&](const std::vector<size_t>& ch) {
      CellSet u(ncells);
      for (size_t i = 0; i < lost.size(); ++i)
        u.merge(lost[i].reads_per_eq[ch[i]]);
      return u.count();
    };

    if (free_idx.size() <= 16) {
      // Exhaustive: tractable for every RAID-scale prime (2^(p-2) states).
      size_t best_cost = SIZE_MAX;
      std::vector<size_t> best = choice;
      std::vector<size_t> cur = choice;
      for (uint64_t mask = 0; mask < (1ull << free_idx.size()); ++mask) {
        for (size_t b = 0; b < free_idx.size(); ++b)
          cur[free_idx[b]] = (mask >> b) & 1;
        size_t cost = total_reads(cur);
        if (cost < best_cost) {
          best_cost = cost;
          best = cur;
        }
      }
      choice = best;
    } else {
      // Greedy descent: flip any choice that lowers the union, to fixpoint.
      size_t cost = total_reads(choice);
      bool improved = true;
      while (improved) {
        improved = false;
        for (size_t i : free_idx) {
          std::vector<size_t> alt = choice;
          alt[i] = 1 - alt[i];
          size_t alt_cost = total_reads(alt);
          if (alt_cost < cost) {
            cost = alt_cost;
            choice = std::move(alt);
            improved = true;
          }
        }
      }
    }
  }

  RecoveryPlan plan;
  CellSet reads(ncells);
  for (size_t i = 0; i < lost.size(); ++i) {
    plan.reconstructions.push_back(
        Reconstruction{0, lost[i].element, lost[i].eqs[choice[i]]});
    reads.merge(lost[i].reads_per_eq[choice[i]]);
  }
  reads.collect(layout, &plan.reads);
  return plan;
}

}  // namespace dcode::raid
