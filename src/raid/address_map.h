// AddressMap: logical data addresses -> (stripe, element, physical disk).
//
// The papers address workloads in "continuous data elements": D-Code's
// <S, L, T> tuples walk the row-major data stream. Logical element g lives
// in stripe g / data_per_stripe at the layout's data element
// g % data_per_stripe. Optional stripe-by-stripe rotation (RAID-5-style
// remapping of columns to physical disks, paper §I's "global load
// balancing" strawman) is supported so the rotation ablation bench can
// demonstrate the paper's claim that it does NOT fix intra-stripe
// imbalance.
#pragma once

#include <cstdint>

#include "codes/code_layout.h"
#include "util/check.h"

namespace dcode::raid {

class AddressMap {
 public:
  explicit AddressMap(const codes::CodeLayout& layout, bool rotate = false)
      : layout_(&layout), rotate_(rotate) {}

  const codes::CodeLayout& layout() const { return *layout_; }
  bool rotate() const { return rotate_; }

  int64_t data_per_stripe() const { return layout_->data_count(); }

  struct Location {
    int64_t stripe;
    codes::Element element;  // logical element within the stripe layout
    int disk;                // physical disk
  };

  Location locate(int64_t logical) const {
    DCODE_CHECK(logical >= 0, "negative logical address");
    int64_t stripe = logical / data_per_stripe();
    int idx = static_cast<int>(logical % data_per_stripe());
    codes::Element e = layout_->data_element(idx);
    return Location{stripe, e, physical_disk(stripe, e.col)};
  }

  // Column -> physical disk for a given stripe (identity unless rotating).
  int physical_disk(int64_t stripe, int col) const {
    if (!rotate_) return col;
    return static_cast<int>((col + stripe) % layout_->cols());
  }

  // Physical disk -> column for a given stripe: the inverse of
  // physical_disk.
  int logical_column(int64_t stripe, int disk) const {
    if (!rotate_) return disk;
    const int64_t cols = layout_->cols();
    return static_cast<int>(((disk - stripe) % cols + cols) % cols);
  }

 private:
  const codes::CodeLayout* layout_;
  bool rotate_;
};

}  // namespace dcode::raid
