// Deadlines and cooperative cancellation for query serving.
//
// A query carries a Deadline (absolute steady-clock point) and optionally
// a caller-owned CancelToken; the serving layers fold both into a
// QueryControl that kernel loops poll at block/batch granularity. The
// poll is amortized: the common case is a decrement-and-compare (no clock
// read), with the actual steady_clock::now() taken once every kStride
// polls — which is what keeps the uncancelled hot path within the <2%
// overhead budget BENCH_robustness.json tracks.
//
// Contract (see DESIGN.md "Failure model"): a loop that observes
// ShouldStop() == true abandons its remaining work and returns with
// whatever partial state it has; the owning layer maps the stop to
// Status::DeadlineExceeded (deadline) or Status::Aborted (cancel) and
// MUST NOT publish or cache the partial answer.

#ifndef TOPK_CORE_DEADLINE_H_
#define TOPK_CORE_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>

#include "core/statistics.h"
#include "core/status.h"

namespace topk {

/// Absolute point in time a query must finish by. Default-constructed
/// deadlines are infinite (never expire) and skip the clock entirely.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() : infinite_(true) {}

  static Deadline Infinite() { return Deadline(); }
  static Deadline At(Clock::time_point tp) { return Deadline(tp); }
  static Deadline After(std::chrono::nanoseconds budget) {
    return Deadline(Clock::now() + budget);
  }
  static Deadline AfterMillis(double ms) {
    return After(std::chrono::nanoseconds(
        static_cast<int64_t>(ms * 1e6)));
  }

  bool infinite() const { return infinite_; }
  bool Expired() const { return !infinite_ && Clock::now() >= at_; }
  /// Remaining budget in milliseconds; negative when already expired,
  /// +inf when infinite (callers use it for retry-after hints).
  double RemainingMillis() const {
    if (infinite_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double, std::milli>(at_ - Clock::now())
        .count();
  }

 private:
  explicit Deadline(Clock::time_point at) : at_(at), infinite_(false) {}

  Clock::time_point at_{};
  bool infinite_;
};

/// Caller-owned cancellation flag; Cancel() may race with queries reading
/// it (that is the point). One token may cover many queries.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-query cooperative stop probe: deadline + optional cancel token,
/// with the amortized clock read described in the header comment. One
/// QueryControl serves exactly one query on one thread at a time (the
/// parallel runner gives each shard task its own); the sticky `stopped_`
/// latch means a loop nest can re-poll freely after a stop.
class QueryControl {
 public:
  /// Clock reads happen once per kStride polls ("a compare per block").
  static constexpr uint32_t kStride = 64;

  QueryControl() = default;
  explicit QueryControl(Deadline deadline,
                        const CancelToken* cancel = nullptr)
      : deadline_(deadline), cancel_(cancel) {}

  /// Amortized cooperative check. Kernel loops call this once per block /
  /// candidate batch; true means abandon remaining work now. The first
  /// poll on a fresh control is precise (reads the clock), so an entry
  /// check catches an already-expired deadline regardless of kStride.
  bool ShouldStop() {
    if (stopped_) return true;
    if (cancel_ != nullptr && cancel_->cancelled()) {
      cancelled_ = true;
      stopped_ = true;
      return true;
    }
    if (deadline_.infinite()) return false;
    if (--countdown_ > 0) return false;
    countdown_ = kStride;
    if (deadline_.Expired()) stopped_ = true;
    return stopped_;
  }

  /// Non-amortized check (reads the clock) for entry/exit points where a
  /// precise answer matters more than the per-poll cost.
  bool ExpiredNow() {
    if (!stopped_ && deadline_.Expired()) stopped_ = true;
    return stopped_;
  }

  /// Whether a stop has been observed (sticky).
  bool stopped() const { return stopped_; }
  /// True when the stop came from the cancel token rather than the clock.
  bool cancelled() const { return cancelled_; }
  const Deadline& deadline() const { return deadline_; }

 private:
  Deadline deadline_ = Deadline::Infinite();
  const CancelToken* cancel_ = nullptr;
  /// Starts at 1, not kStride: the FIRST poll reads the clock, so the
  /// serving layers' entry checks reject an already-expired query
  /// deterministically however little work it would have done; only the
  /// steady-state polls amortize.
  uint32_t countdown_ = 1;
  bool stopped_ = false;
  bool cancelled_ = false;
};

/// Maps a stopped control to its caller-facing status — Aborted for a
/// cancel, DeadlineExceeded for the clock — naming `what` stopped, and
/// ticks kDeadlineExceeded (cancellations share the counter: both mean
/// "stopped by request").
inline Status StopStatus(const QueryControl& control, const char* what,
                         Statistics* stats) {
  AddTicker(stats, Ticker::kDeadlineExceeded);
  if (control.cancelled()) {
    return Status::Aborted(std::string(what) + " cancelled");
  }
  return Status::DeadlineExceeded(std::string(what) + " deadline exceeded");
}

}  // namespace topk

#endif  // TOPK_CORE_DEADLINE_H_
