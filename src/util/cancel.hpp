#pragma once
// Cooperative cancellation for the solve task tree.
//
// A CancelToken is a cheap, copyable view onto shared state owned by a
// CancelSource.  A default-constructed token is permanently "never stops",
// so unplumbed call sites pay one null check per checkpoint and nothing
// else.  Polling draws no randomness, so a token that never fires leaves
// solves bit-identical to the pre-cancellation code.
//
// Tokens compose: a source may chain parent tokens (service abort ∘
// caller token ∘ per-request deadline), and should_stop() reports the
// first reason found walking parents before its own flag and deadline.
// Cancellation is sticky: cancel() latches forever, and a steady-clock
// deadline stays exceeded once passed, so repeated polls agree.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

namespace hycim::util {

enum class StopReason : std::uint8_t {
  kNone = 0,
  kCancelled,
  kDeadlineExceeded,
};

namespace detail {
struct CancelState;
}  // namespace detail

class CancelToken {
 public:
  // Null token: never stops, armed() is false.
  CancelToken() = default;

  // True when this token can ever report a stop (it has state; parents,
  // a cancel flag, or a deadline may fire).  Callers use this to skip
  // checkpointing work entirely on the unarmed path.
  bool armed() const { return state_ != nullptr; }

  // Polls parents, then the cancel flag, then the deadline.
  StopReason should_stop() const;

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const detail::CancelState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const detail::CancelState> state_;
};

namespace detail {

inline constexpr std::chrono::steady_clock::rep kNoDeadline =
    std::numeric_limits<std::chrono::steady_clock::rep>::max();

struct CancelState {
  std::atomic<bool> cancelled{false};
  // steady_clock time_since_epoch count; kNoDeadline means none set.
  std::atomic<std::chrono::steady_clock::rep> deadline{kNoDeadline};
  // Const after construction; polled lock-free.
  std::vector<CancelToken> parents;
};

}  // namespace detail

inline StopReason CancelToken::should_stop() const {
  if (!state_) return StopReason::kNone;
  for (const CancelToken& parent : state_->parents) {
    const StopReason reason = parent.should_stop();
    if (reason != StopReason::kNone) return reason;
  }
  if (state_->cancelled.load(std::memory_order_acquire)) {
    return StopReason::kCancelled;
  }
  const auto deadline = state_->deadline.load(std::memory_order_acquire);
  if (deadline != detail::kNoDeadline &&
      std::chrono::steady_clock::now().time_since_epoch().count() >=
          deadline) {
    return StopReason::kDeadlineExceeded;
  }
  return StopReason::kNone;
}

class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<detail::CancelState>()) {}

  // Chains parent tokens: the issued token stops as soon as any parent
  // does.  Null parents are dropped so chaining an unarmed token is free.
  explicit CancelSource(std::vector<CancelToken> parents)
      : state_(std::make_shared<detail::CancelState>()) {
    for (CancelToken& parent : parents) {
      if (parent.armed()) state_->parents.push_back(std::move(parent));
    }
  }

  void cancel() { state_->cancelled.store(true, std::memory_order_release); }

  void set_deadline(std::chrono::steady_clock::time_point when) {
    state_->deadline.store(when.time_since_epoch().count(),
                           std::memory_order_release);
  }

  // Convenience: deadline at now + timeout.  A non-positive timeout
  // produces an already-expired deadline (the fast-fail path).
  void set_deadline_after(std::chrono::nanoseconds timeout) {
    set_deadline(std::chrono::steady_clock::now() + timeout);
  }

  CancelToken token() const { return CancelToken(state_); }

 private:
  std::shared_ptr<detail::CancelState> state_;
};

}  // namespace hycim::util
