// The failover record's transition function, explored exhaustively.
//
// next() (raid/slot_state.h) is pure, so every event sequence can be
// tried: breadth first, with a visited set, from two healthy slots, 0 to
// 2 spares and a 3-stripe array, every state at most 8 events reach.
// Each event is taken in every form the array can send it: on either
// slot, naming the slot's current generation or the one before, and for
// a pass-advance, each stripe. Beside the record the walk keeps what
// happened to each slot (which stripes a pass on the current generation
// rebuilt, whether an operator vouched for the device, whether a
// promotion still waits for its pass), and after every transition it
// checks that:
//  * every stripe below a rebuilding slot's watermark was rebuilt by a
//    pass on the slot's current generation;
//  * a fail-stop naming an older generation, while the current device is
//    live, changes nothing, asks for nothing and uses no spare;
//  * after a promotion a pass stays wanted or running until a pass-done
//    on that generation or a stand-down;
//  * a slot is kRebuilding exactly when its watermark is below whole, and
//    kHealthy only when it is whole;
//  * the spare count never goes below 0;
// and that the actions agree with the record: a blank is swapped in
// exactly when the generation moves, a spare is used only to replace a
// failed device, the worker is started only when no pass was wanted, and
// the flight events walk from the old health to the new one.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "raid/slot_state.h"

namespace dcode::raid {
namespace {

constexpr int kSlots = 2;
constexpr int64_t kStripes = 3;
constexpr int kDepth = 8;

// What the walk remembers of a slot's history beyond the record.
struct History {
  unsigned rebuilt = 0;  // stripes a pass on the current generation rebuilt
  bool vouched = false;  // an operator vouched for the current device
  bool owed = false;     // promoted; no pass-done on it nor stand-down since
};

struct World {
  std::array<SlotState, kSlots> slots;
  std::array<History, kSlots> history;
  ArrayState array;

  // Every field in one word: generations stay below 16 and spares below
  // 16 within kDepth events.
  uint64_t key() const {
    uint64_t k = static_cast<uint64_t>(array.spares) << 1 | array.pass;
    for (int d = 0; d < kSlots; ++d) {
      const SlotState& s = slots[static_cast<size_t>(d)];
      const History& h = history[static_cast<size_t>(d)];
      const uint64_t mark = s.watermark == kWhole ? 7 : s.watermark;
      k = k << 4 | s.generation;
      k = k << 2 | static_cast<uint64_t>(s.health);
      k = k << 3 | mark;
      k = k << 3 | h.rebuilt;
      k = k << 2 | (h.vouched ? 2u : 0u) | (h.owed ? 1u : 0u);
    }
    return k;
  }
};

struct Step {
  int disk;  // -1: an event that names no slot
  SlotEvent event;
};

std::vector<Step> events(const World& w) {
  std::vector<Step> out;
  for (int d = 0; d < kSlots; ++d) {
    const uint64_t gen = w.slots[static_cast<size_t>(d)].generation;
    std::vector<uint64_t> gens = {gen};
    if (gen > 0) gens.push_back(gen - 1);
    out.push_back({d, {SlotEvent::kSuspectVerdict}});
    out.push_back({d, {SlotEvent::kFailVerdict}});
    out.push_back({d, {SlotEvent::kReplace}});
    out.push_back({d, {SlotEvent::kMarkHealthy}});
    for (uint64_t g : gens) {
      out.push_back({d, {SlotEvent::kFailStop, g}});
      out.push_back({d, {SlotEvent::kPassDone, g}});
      for (int64_t stripe = 0; stripe < kStripes; ++stripe) {
        out.push_back({d, {SlotEvent::kPassAdvance, g, stripe}});
      }
    }
  }
  out.push_back({-1, {.kind = SlotEvent::kAddSpares, .count = 1}});
  out.push_back({-1, {SlotEvent::kPassStart}});
  out.push_back({-1, {SlotEvent::kStandDown}});
  return out;
}

// Applies one event as HealthMonitor does, and the history with it.
World step(const World& w, const Step& st, SlotTransition* out) {
  World n = w;
  const SlotState none;
  const size_t d = static_cast<size_t>(st.disk);
  const SlotEvent& e = st.event;
  *out = next(st.disk < 0 ? none : w.slots[d], w.array, e);
  n.array = out->array;
  if (e.kind == SlotEvent::kStandDown) {
    for (History& h : n.history) h.owed = false;
  }
  if (st.disk < 0) return n;
  n.slots[d] = out->slot;
  History& h = n.history[d];
  if (n.slots[d].generation != w.slots[d].generation) {
    h = {};
    h.owed = n.array.spares < w.array.spares;
  }
  const bool current = e.generation == n.slots[d].generation;
  if (e.kind == SlotEvent::kPassAdvance && current) {
    h.rebuilt |= 1u << e.stripe;
  }
  if (e.kind == SlotEvent::kPassDone && current) h.owed = false;
  if (e.kind == SlotEvent::kMarkHealthy) h.vouched = true;
  return n;
}

std::string describe(const World& w) {
  std::ostringstream os;
  os << "spares " << w.array.spares << ", pass " << w.array.pass;
  for (int d = 0; d < kSlots; ++d) {
    const SlotState& s = w.slots[static_cast<size_t>(d)];
    const History& h = w.history[static_cast<size_t>(d)];
    os << "; slot " << d << ": gen " << s.generation << ", "
       << to_string(s.health) << ", watermark "
       << (s.watermark == kWhole ? std::string("whole")
                                 : std::to_string(s.watermark))
       << ", rebuilt " << h.rebuilt << ", vouched " << h.vouched
       << ", owed " << h.owed;
  }
  return os.str();
}

std::string describe(const Step& st) {
  static const char* const kNames[] = {
      "suspect-verdict", "fail-verdict", "fail-stop",    "replace",
      "mark-healthy",    "add-spares",   "pass-start",   "pass-advance",
      "pass-done",       "stand-down"};
  std::ostringstream os;
  os << kNames[st.event.kind] << " on slot " << st.disk << " (generation "
     << st.event.generation << ", stripe " << st.event.stripe << ")";
  return os.str();
}

// Empty when every invariant holds after `st` took `w` to `n`.
std::string violation(const World& w, const Step& st, const World& n,
                      const SlotTransition& t) {
  if (n.array.spares < 0) return "the spare count went below 0";
  for (int d = 0; d < kSlots; ++d) {
    const SlotState& s = n.slots[static_cast<size_t>(d)];
    const History& h = n.history[static_cast<size_t>(d)];
    const bool rebuilding = s.health == DiskHealth::kRebuilding;
    if (rebuilding != (s.watermark != kWhole)) {
      return "kRebuilding and a watermark below whole disagree";
    }
    if (s.health == DiskHealth::kHealthy && s.watermark != kWhole) {
      return "a healthy slot below whole";
    }
    if (s.watermark != kWhole && s.watermark > kStripes) {
      return "a watermark past the last stripe";
    }
    if (s.generation == 0 && s.watermark != kWhole) {
      return "a watermark below whole on the original device";
    }
    if (s.generation > 0 && !h.vouched && s.health != DiskHealth::kFailed) {
      const int64_t upto = std::min(s.watermark, kStripes);
      for (int64_t stripe = 0; stripe < upto; ++stripe) {
        if ((h.rebuilt & (1u << stripe)) == 0) {
          return "stripe " + std::to_string(stripe) + " of slot " +
                 std::to_string(d) +
                 " is below the watermark, but no pass on its generation "
                 "rebuilt it";
        }
      }
    }
    if (h.owed && !n.array.pass) {
      return "slot " + std::to_string(d) +
             " was promoted, but no pass is wanted or running";
    }
  }
  const SlotActions& act = t.actions;
  if (act.start_worker && (w.array.pass || !n.array.pass)) {
    return "the worker started while a pass was already wanted";
  }
  if (st.disk < 0) {
    if (act.fail_device || act.swap_blank || act.transitions != 0) {
      return "an array event acted on a slot";
    }
    return "";
  }
  const SlotState& before = w.slots[static_cast<size_t>(st.disk)];
  const SlotState& after = n.slots[static_cast<size_t>(st.disk)];
  const SlotEvent& e = st.event;
  if (e.kind == SlotEvent::kFailStop && e.generation < before.generation &&
      before.health != DiskHealth::kFailed) {
    if (!(after == before) || !(n.array == w.array) || act.fail_device ||
        act.swap_blank || act.start_worker || act.transitions != 0) {
      return "a fail-stop naming an older generation changed the record";
    }
  }
  const bool moved = after.generation != before.generation;
  if (act.swap_blank != moved ||
      (moved && after.generation != before.generation + 1)) {
    return "the generation moved without exactly one blank swapped in";
  }
  if (n.array.spares < w.array.spares &&
      (!act.fail_device || !act.swap_blank ||
       n.array.spares != w.array.spares - 1)) {
    return "a spare went to anything but one failed device";
  }
  DiskHealth at = before.health;
  bool failed = false;
  for (int i = 0; i < act.transitions; ++i) {
    const auto [from, to] = act.transition[static_cast<size_t>(i)];
    if (from != at || to == from) return "the flight events do not chain";
    failed |= to == DiskHealth::kFailed;
    at = to;
  }
  if (at != after.health) return "the flight events miss the new health";
  if (act.fail_device != failed) {
    return "a device failed without a transition into kFailed, or the "
           "reverse";
  }
  return "";
}

TEST(SlotState, EveryStateWithinEightEventsKeepsTheInvariants) {
  std::unordered_set<uint64_t> seen;
  std::vector<World> frontier;
  for (int64_t spares = 0; spares <= 2; ++spares) {
    World w;
    w.array = {kStripes, spares, false};
    seen.insert(w.key());
    frontier.push_back(w);
  }
  // What the walk must reach for its checks to mean anything.
  int64_t transitions = 0;
  int64_t promotions = 0;
  int64_t repromotions = 0;  // a spare replacing a rebuilding spare
  int64_t stale_fail_stops = 0;
  int64_t rebuilt_whole = 0;  // pass-done took a swapped-in slot to whole
  for (int depth = 0; depth < kDepth; ++depth) {
    std::vector<World> reached;
    for (const World& w : frontier) {
      for (const Step& st : events(w)) {
        SlotTransition t;
        const World n = step(w, st, &t);
        ++transitions;
        const std::string bad = violation(w, st, n, t);
        if (!bad.empty()) {
          FAIL() << bad << "\n  before: " << describe(w)
                 << "\n  event:  " << describe(st)
                 << "\n  after:  " << describe(n);
        }
        if (st.disk >= 0) {
          const SlotState& before = w.slots[static_cast<size_t>(st.disk)];
          const SlotState& after = n.slots[static_cast<size_t>(st.disk)];
          if (n.array.spares < w.array.spares) {
            ++promotions;
            repromotions += before.health == DiskHealth::kRebuilding;
          }
          stale_fail_stops += st.event.kind == SlotEvent::kFailStop &&
                              st.event.generation < before.generation;
          rebuilt_whole += st.event.kind == SlotEvent::kPassDone &&
                           after.watermark == kWhole &&
                           before.watermark != kWhole;
        }
        if (seen.insert(n.key()).second) reached.push_back(n);
      }
    }
    frontier = std::move(reached);
  }
  EXPECT_GT(promotions, 0);
  EXPECT_GT(repromotions, 0);
  EXPECT_GT(stale_fail_stops, 0);
  EXPECT_GT(rebuilt_whole, 0);
  RecordProperty("states", static_cast<int>(seen.size()));
  RecordProperty("transitions", static_cast<int>(transitions));
}

}  // namespace
}  // namespace dcode::raid
