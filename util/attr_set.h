// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// AttrSet: a set of attribute (column) indices over a relation schema,
// backed by a single 64-bit mask. Every layer of the system — entropy
// queries, separator mining, schema enumeration — keys on these, so the
// representation is deliberately trivially-copyable and hash-friendly.
// The 64-attribute cap is far above anything in the paper's Table 2.

#ifndef MAIMON_UTIL_ATTR_SET_H_
#define MAIMON_UTIL_ATTR_SET_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace maimon {

class AttrSet {
 public:
  static constexpr int kMaxAttrs = 64;

  constexpr AttrSet() : bits_(0) {}
  constexpr explicit AttrSet(uint64_t bits) : bits_(bits) {}

  /// The set {0, 1, ..., n-1}.
  static constexpr AttrSet Universe(int n) {
    return AttrSet(n >= 64 ? ~uint64_t{0} : ((uint64_t{1} << n) - 1));
  }
  static constexpr AttrSet Single(int attr) {
    // Out-of-range shifts are UB and produce a silently wrong mask in
    // release builds; catch the bad index at the source in debug builds.
    assert(attr >= 0 && attr < kMaxAttrs);
    return AttrSet(uint64_t{1} << attr);
  }

  constexpr uint64_t bits() const { return bits_; }
  constexpr bool Empty() const { return bits_ == 0; }
  constexpr bool Any() const { return bits_ != 0; }
  int Count() const { return __builtin_popcountll(bits_); }

  void Add(int attr) {
    assert(attr >= 0 && attr < kMaxAttrs);
    bits_ |= uint64_t{1} << attr;
  }
  void Remove(int attr) {
    assert(attr >= 0 && attr < kMaxAttrs);
    bits_ &= ~(uint64_t{1} << attr);
  }
  /// False for any attr outside [0, kMaxAttrs): no set holds one.
  constexpr bool Contains(int attr) const {
    return attr >= 0 && attr < kMaxAttrs && ((bits_ >> attr) & uint64_t{1});
  }
  constexpr bool ContainsAll(AttrSet other) const {
    return (bits_ & other.bits_) == other.bits_;
  }
  constexpr bool Intersects(AttrSet other) const {
    return (bits_ & other.bits_) != 0;
  }

  constexpr AttrSet Union(AttrSet other) const {
    return AttrSet(bits_ | other.bits_);
  }
  constexpr AttrSet Intersect(AttrSet other) const {
    return AttrSet(bits_ & other.bits_);
  }
  constexpr AttrSet Minus(AttrSet other) const {
    return AttrSet(bits_ & ~other.bits_);
  }
  constexpr AttrSet Plus(int attr) const {
    assert(attr >= 0 && attr < kMaxAttrs);
    return AttrSet(bits_ | (uint64_t{1} << attr));
  }
  /// The set unchanged for any attr outside [0, kMaxAttrs).
  constexpr AttrSet Without(int attr) const {
    return attr >= 0 && attr < kMaxAttrs
               ? AttrSet(bits_ & ~(uint64_t{1} << attr))
               : *this;
  }

  /// Lowest attribute index in the set; -1 when empty.
  int First() const { return bits_ == 0 ? -1 : __builtin_ctzll(bits_); }

  std::vector<int> ToVector() const {
    std::vector<int> out;
    out.reserve(static_cast<size_t>(Count()));
    for (uint64_t b = bits_; b != 0; b &= b - 1) {
      out.push_back(__builtin_ctzll(b));
    }
    return out;
  }

  /// Compact display form: letters "ACD" while every attribute index fits
  /// the alphabet, "{0,3,27}" otherwise. Empty set prints as "{}".
  std::string ToString() const {
    if (bits_ == 0) return "{}";
    if (bits_ < (uint64_t{1} << 26)) {
      std::string s;
      for (uint64_t b = bits_; b != 0; b &= b - 1) {
        s.push_back(static_cast<char>('A' + __builtin_ctzll(b)));
      }
      return s;
    }
    std::string s = "{";
    bool first = true;
    for (uint64_t b = bits_; b != 0; b &= b - 1) {
      if (!first) s += ",";
      s += std::to_string(__builtin_ctzll(b));
      first = false;
    }
    return s + "}";
  }

  friend constexpr bool operator==(AttrSet a, AttrSet b) {
    return a.bits_ == b.bits_;
  }
  friend constexpr bool operator!=(AttrSet a, AttrSet b) {
    return a.bits_ != b.bits_;
  }
  friend constexpr bool operator<(AttrSet a, AttrSet b) {
    return a.bits_ < b.bits_;
  }

 private:
  uint64_t bits_;
};

struct AttrSetHash {
  size_t operator()(AttrSet s) const {
    // SplitMix64 finalizer: cheap and well distributed for mask keys.
    uint64_t x = s.bits();
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

}  // namespace maimon

#endif  // MAIMON_UTIL_ATTR_SET_H_
