// The failover record of an array's slots and the one pure transition
// function every change to it goes through. A slot's record holds the
// generation of its device (each blank swapped in counts one), the
// device's health and the rebuild watermark: stripes [0, watermark) hold
// valid data, kWhole that all do. The array's part holds the spare count
// and whether a rebuild pass is wanted or running. next() takes no lock
// and touches no device: HealthMonitor applies it under its one lock and
// runs the actions, and tests/slot_state_test.cc walks every state a few
// events reach.
//
//   healthy ──(suspect verdict)───────────────────────▶ suspect
//   healthy, suspect ──(fail verdict)──────────────────▶ failed
//   any but failed ──(fail-stop on the current device)─▶ failed
//   failed ──(a spare is left: promote)────────────────▶ rebuilding
//   any ──(replace)────────────────────────────────────▶ rebuilding
//   rebuilding ──(pass-done on its generation)─────────▶ healthy
//   any ──(mark-healthy)───────────────────────────────▶ healthy
//
// A slot is rebuilding exactly while its watermark is below kWhole; only
// a pass on its current generation advances it, a stripe at a time. A
// fail-stop naming an older generation changes nothing. A promotion
// wants a pass, and the flag stays set until the pass stands down.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <utility>

namespace dcode::raid {

enum class DiskHealth { kHealthy = 0, kSuspect = 1, kFailed = 2,
                        kRebuilding = 3 };

inline const char* to_string(DiskHealth h) {
  static const char* const kNames[] = {"healthy", "suspect", "failed",
                                       "rebuilding"};
  return kNames[static_cast<int>(h)];
}

constexpr int64_t kWhole = std::numeric_limits<int64_t>::max();

struct SlotState {
  uint64_t generation = 0;
  DiskHealth health = DiskHealth::kHealthy;
  int64_t watermark = kWhole;
  bool operator==(const SlotState&) const = default;
};

struct ArrayState {
  int64_t stripes = 0;  // a pass is done once a watermark reaches it
  int64_t spares = 0;
  bool pass = false;  // a rebuild pass is wanted or running
  bool operator==(const ArrayState&) const = default;
};

struct SlotEvent {
  enum Kind {
    kSuspectVerdict,  // the window: transients or mismatches at the bar
    kFailVerdict,     // the window: transients at the fail bar
    kFailStop,        // a transfer fail-stopped on `generation`'s device
    kReplace,         // an operator swapped a blank in
    kMarkHealthy,     // an operator vouches for the device
    kAddSpares,       // `count` hot spares arrived
    kPassStart,       // a synchronous rebuild claims the pass
    kPassAdvance,     // a pass on `generation` rebuilt `stripe`
    kPassDone,        // a pass on `generation` walked every stripe
    kStandDown,       // the pass stopped: done, shut down or failed
  };
  Kind kind;
  uint64_t generation = 0;
  int64_t stripe = 0;
  int64_t count = 0;
};

struct SlotActions {
  bool fail_device = false;   // a new failure episode: fail the device
  bool swap_blank = false;    // swap a blank device into the slot
  bool start_worker = false;  // start the rebuild worker
  // health_transition flight events (a promotion passes kFailed).
  int transitions = 0;
  std::array<std::pair<DiskHealth, DiskHealth>, 2> transition{};
};

struct SlotTransition {
  SlotState slot;
  ArrayState array;
  SlotActions actions;
};

// kAddSpares, kPassStart and kStandDown leave `slot` as it is.
inline SlotTransition next(const SlotState& slot, const ArrayState& array,
                           const SlotEvent& e) {
  SlotTransition t{slot, array, {}};
  SlotState& s = t.slot;
  ArrayState& a = t.array;
  SlotActions& act = t.actions;
  auto move_to = [&](DiskHealth h) {
    if (s.health == h) return;
    act.transition[static_cast<size_t>(act.transitions++)] = {s.health, h};
    s.health = h;
  };
  auto swap_in_blank = [&] {
    ++s.generation;
    s.watermark = 0;
    move_to(DiskHealth::kRebuilding);
    act.swap_blank = true;
  };
  auto fail = [&] {
    move_to(DiskHealth::kFailed);
    s.watermark = kWhole;
    act.fail_device = true;
    if (a.spares == 0) return;
    --a.spares;
    swap_in_blank();
    act.start_worker = !a.pass;
    a.pass = true;
  };
  const bool current = e.generation == s.generation;
  const bool rebuilding = s.health == DiskHealth::kRebuilding;
  switch (e.kind) {
    case SlotEvent::kSuspectVerdict:
      if (s.health == DiskHealth::kHealthy) move_to(DiskHealth::kSuspect);
      break;
    case SlotEvent::kFailVerdict:
      if (s.health < DiskHealth::kFailed) fail();
      break;
    case SlotEvent::kFailStop:
      if (e.generation >= s.generation && s.health != DiskHealth::kFailed) {
        fail();
      }
      break;
    case SlotEvent::kReplace:
      swap_in_blank();
      break;
    case SlotEvent::kMarkHealthy:
      s.watermark = kWhole;
      move_to(DiskHealth::kHealthy);
      break;
    case SlotEvent::kAddSpares:
      a.spares += e.count;
      break;
    case SlotEvent::kPassStart:
      a.pass = true;
      break;
    case SlotEvent::kPassAdvance:
      if (current && rebuilding && s.watermark == e.stripe &&
          e.stripe < a.stripes) {
        ++s.watermark;
      }
      break;
    case SlotEvent::kPassDone:
      if (current && rebuilding && s.watermark == a.stripes) {
        s.watermark = kWhole;
        move_to(DiskHealth::kHealthy);
      }
      break;
    case SlotEvent::kStandDown:
      a.pass = false;
      break;
  }
  return t;
}

}  // namespace dcode::raid
