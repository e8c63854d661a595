// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "decomp/tuple_ids.h"

#include <cstring>

namespace maimon {
namespace {

constexpr size_t kMinSlots = 16;

}  // namespace

uint64_t TupleIdTable::Hash(const uint32_t* tuple) const {
  uint64_t h = width_;
  for (size_t i = 0; i < width_; ++i) {
    h = (h ^ tuple[i]) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 32;
  }
  return h;
}

std::pair<uint32_t, bool> TupleIdTable::Insert(const uint32_t* tuple) {
  if (width_ == 0) {
    const bool inserted = size_ == 0;
    size_ = 1;
    return {0, inserted};
  }
  // Load factor at most 1/2, so a probe run stays short and ends empty.
  if (2 * (size_ + 1) > slots_.size()) Grow();
  const size_t bytes = width_ * sizeof(uint32_t);
  for (size_t s = Hash(tuple) & mask_;; s = (s + 1) & mask_) {
    const uint32_t slot = slots_[s];
    if (slot == 0) {
      const uint32_t id = static_cast<uint32_t>(size_++);
      slots_[s] = id + 1;
      tuples_.insert(tuples_.end(), tuple, tuple + width_);
      return {id, true};
    }
    if (std::memcmp(Tuple(slot - 1), tuple, bytes) == 0) {
      return {slot - 1, false};
    }
  }
}

void TupleIdTable::Grow() {
  slots_.assign(slots_.empty() ? kMinSlots : 2 * slots_.size(), 0);
  mask_ = slots_.size() - 1;
  for (uint32_t id = 0; id < size_; ++id) {
    size_t s = Hash(Tuple(id)) & mask_;
    while (slots_[s] != 0) s = (s + 1) & mask_;
    slots_[s] = id + 1;
  }
}

}  // namespace maimon
