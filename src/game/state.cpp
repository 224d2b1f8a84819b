#include "game/state.hpp"

#include <numeric>

#include "util/check.hpp"

namespace egt::game {

namespace {

// Validates before num_states shifts by 2 * memory: a negative or oversized
// shift is undefined behaviour.
int checked_memory(int memory) {
  EGT_REQUIRE_MSG(memory >= 0 && memory <= kMaxMemory,
                  "memory steps must be in [0, 6]");
  return memory;
}

}  // namespace

StateCodec::StateCodec(int memory)
    : memory_(checked_memory(memory)),
      states_(num_states(memory_)),
      mask_(num_states(memory_) - 1) {}

State StateCodec::encode(const std::vector<Move>& mine,
                         const std::vector<Move>& theirs) const {
  EGT_REQUIRE(mine.size() == static_cast<std::size_t>(memory_));
  EGT_REQUIRE(theirs.size() == static_cast<std::size_t>(memory_));
  State s = 0;
  // Oldest round first so that round 0 lands in the lowest bits.
  for (int k = memory_ - 1; k >= 0; --k) {
    s = (s << 2) | static_cast<State>(2 * to_bit(mine[static_cast<std::size_t>(k)]) +
                                      to_bit(theirs[static_cast<std::size_t>(k)]));
  }
  return s;
}

LinearStateTable::LinearStateTable(int memory) : codec_(memory) {
  // The paper's `states` array simply enumerates all patterns; we store the
  // identity permutation explicitly so find_state really scans memory the
  // way the original code did.
  rows_.resize(codec_.states());
  std::iota(rows_.begin(), rows_.end(), 0u);
}

State LinearStateTable::find_state(State view) const noexcept {
  for (std::uint32_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i] == view) return i;
  }
  return 0;  // unreachable for valid views; keeps noexcept contract
}

}  // namespace egt::game
