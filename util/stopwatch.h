// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Wall-clock timing (Stopwatch) and cooperative budgets (Deadline). Every
// potentially-exponential search in the miner takes a Deadline* and polls it;
// nullptr means "no budget". Each phase carves one Deadline from its own
// budget, and every pair of the mining grid polls the same one: there are
// no per-pair slices. A deadline may also carry a cancel flag: once the
// flag is set every copy of it reads as expired, so the same polls that
// enforce the budget also stop work whose result is no longer wanted (the
// pair grid's merge stop).
//
// Stopwatch::NowNs is the ONE monotonic clock source of the runtime: trace
// span timestamps (obs/trace.h) and deadline polling both read
// steady_clock, so a span's position in a profile and the budget math that
// cut it short can never disagree about what time it is.

#ifndef MAIMON_UTIL_STOPWATCH_H_
#define MAIMON_UTIL_STOPWATCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>

namespace maimon {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Raw monotonic reading in nanoseconds since the steady_clock epoch —
  /// the shared time source for trace-event timestamps and elapsed math.
  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
  }

  /// Elapsed nanoseconds since construction / Reset.
  uint64_t ElapsedNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Calling thread's CPU time in nanoseconds (0 where the platform has no
/// per-thread CPU clock). Span profiles pair this with NowNs so a phase's
/// wall/cpu split exposes queue starvation vs genuine compute.
inline uint64_t ThreadCpuNs() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
  }
#endif
  return 0;
}

class Deadline {
 public:
  /// An infinite deadline (never expires).
  Deadline() : infinite_(true) {}

  /// A deadline `seconds` from now. A budget of 0 or less (-inf included)
  /// is expired at once; one past what the clock can reach (+inf included)
  /// and NaN never expire.
  static Deadline After(double seconds) {
    const Clock::time_point now = Clock::now();
    const std::chrono::duration<double, Clock::period> ticks =
        std::chrono::duration<double>(seconds);
    // A double below the headroom rounded to double is below the exact
    // headroom, so neither the cast nor the sum below can overflow.
    if (!(ticks.count() <
          static_cast<double>((Clock::time_point::max() - now).count()))) {
      return Infinite();
    }
    Deadline d;
    d.infinite_ = false;
    d.end_ = ticks.count() > 0
                 ? now + std::chrono::duration_cast<Clock::duration>(ticks)
                 : now;
    return d;
  }
  static Deadline Infinite() { return Deadline(); }

  /// A copy of this deadline that also expires once `*cancel` is set
  /// (replacing any flag it had). The flag must outlive every copy; copies
  /// keep it.
  Deadline CancelledBy(const std::atomic<bool>* cancel) const {
    Deadline d = *this;
    d.cancel_ = cancel;
    return d;
  }

  bool Expired() const {
    return (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) ||
           (!infinite_ && Clock::now() >= end_);
  }

 private:
  using Clock = std::chrono::steady_clock;

  bool infinite_ = true;
  Clock::time_point end_{};
  const std::atomic<bool>* cancel_ = nullptr;
};

/// Poll helper: nullptr deadlines never expire.
inline bool DeadlineExpired(const Deadline* deadline) {
  return deadline != nullptr && deadline->Expired();
}

}  // namespace maimon

#endif  // MAIMON_UTIL_STOPWATCH_H_
