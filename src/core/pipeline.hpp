// Bounded blocking queue: the backpressure primitive between a producer
// and a team of consumers (the service's readers and lot workers).
//
// Contracts and semantics:
//   * push() blocks while the queue is full -- that wait is the
//     backpressure, counted in blocked_pushes(). try_push() never waits and
//     reports kFull instead, so an admission layer can shed load.
//   * close() releases every blocked producer and consumer. Later pushes
//     are rejected as kClosed (counted into "pipeline.rejected_after_close"),
//     never silently dropped; consumers still drain what was queued.
//   * The queue imposes no order across producers; any ordering a caller
//     needs must live in the items themselves.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

#include "core/annotations.hpp"
#include "core/contracts.hpp"
#include "core/telemetry.hpp"

namespace stf::core {

/// Typed outcome of a BoundedQueue push. kFull is only ever returned by the
/// non-blocking try_push (push() waits instead); kClosed means the value was
/// NOT enqueued because the queue had been shut down -- a condition the
/// caller must handle (reject upstream, count, or assert unreachable), never
/// a silent drop.
enum class PushResult {
  kAccepted,  ///< Value enqueued.
  kFull,      ///< try_push only: queue at capacity, value not enqueued.
  kClosed,    ///< Queue closed: value not enqueued (typed rejection).
};

/// Bounded blocking FIFO between producers and consumers. Multi-producer,
/// multi-consumer; push blocks while full (that is the backpressure), pop
/// blocks while empty, close() releases everyone. Usable standalone.
template <class T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    STF_REQUIRE(capacity >= 1, "BoundedQueue: capacity < 1");
  }

  /// Blocks while the queue is full (that is the backpressure window).
  /// Returns kAccepted, or kClosed -- without enqueueing -- once the queue
  /// has been closed; close() wakes every producer blocked here. A rejected
  /// push counts into "pipeline.rejected_after_close".
  [[nodiscard]] PushResult push(T value) STF_EXCLUDES(mutex_) {
    UniqueLock lock(mutex_);
    if (items_.size() >= capacity_ && !closed_) {
      ++blocked_pushes_;
      // Explicit wait loop: the analysis does not carry lock state into
      // lambda bodies, while here every guarded read happens under mutex_.
      while (items_.size() >= capacity_ && !closed_)
        not_full_.wait(lock.native());
    }
    if (closed_) {
      lock.unlock();
      STF_COUNT("pipeline.rejected_after_close");
      return PushResult::kClosed;
    }
    items_.push_back(std::move(value));
    lock.unlock();
    not_empty_.notify_one();
    return PushResult::kAccepted;
  }

  /// Non-blocking push: kAccepted, kFull (queue at capacity -- the caller's
  /// load-shedding signal), or kClosed. Never waits, so an admission layer
  /// built on it can reject under overload instead of hanging.
  [[nodiscard]] PushResult try_push(T value) STF_EXCLUDES(mutex_) {
    UniqueLock lock(mutex_);
    if (closed_) {
      lock.unlock();
      STF_COUNT("pipeline.rejected_after_close");
      return PushResult::kClosed;
    }
    if (items_.size() >= capacity_) return PushResult::kFull;
    items_.push_back(std::move(value));
    lock.unlock();
    not_empty_.notify_one();
    return PushResult::kAccepted;
  }

  /// Blocks until an item arrives; returns false once the queue is closed
  /// AND drained (a closed queue still hands out its remaining items).
  bool pop(T& out) STF_EXCLUDES(mutex_) {
    UniqueLock lock(mutex_);
    while (items_.empty() && !closed_) not_empty_.wait(lock.native());
    if (items_.empty()) return false;
    out = std::move(items_.front());  // stf-analyze: allow(checked-access)
    items_.pop_front();               // -- the !empty() test is 2 lines up
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// No more pushes; blocked producers and (once drained) consumers return.
  void close() STF_EXCLUDES(mutex_) {
    {
      const LockGuard lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  std::size_t size() const STF_EXCLUDES(mutex_) {
    const LockGuard lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

  /// Times a push found the queue full and had to wait (backpressure).
  std::uint64_t blocked_pushes() const STF_EXCLUDES(mutex_) {
    const LockGuard lock(mutex_);
    return blocked_pushes_;
  }

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_ STF_GUARDED_BY(mutex_);
  std::uint64_t blocked_pushes_ STF_GUARDED_BY(mutex_) = 0;
  bool closed_ STF_GUARDED_BY(mutex_) = false;
};

}  // namespace stf::core
