#include "psc/limits/budget.h"

#include "psc/obs/metrics.h"
#include "psc/obs/scope.h"
#include "psc/util/string_util.h"

namespace psc {
namespace limits {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now().time_since_epoch())
          .count());
}

thread_local const CallLimits* t_ambient_limits = nullptr;

/// min of two "0 = unlimited" limits: the tighter nonzero value wins.
template <typename T>
T TightenLimit(T a, T b) {
  if (a == 0) return b;
  if (b == 0) return a;
  return a < b ? a : b;
}

}  // namespace

const char* StopReasonToString(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return "none";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kNodeBudget:
      return "node-budget";
    case StopReason::kCancelled:
      return "cancelled";
  }
  return "?";
}

struct Budget::State {
  BudgetOptions options;
  /// Absolute deadline; Clock::time_point::max() when no deadline is set.
  Clock::time_point deadline = Clock::time_point::max();
  std::atomic<uint64_t> nodes{0};
  /// StopReason of the first tripped limit; kNone while within budget.
  std::atomic<int> reason{static_cast<int>(StopReason::kNone)};
  /// Steady micros at the moment of the trip, for observer latency.
  std::atomic<uint64_t> trip_micros{0};
  CancelToken token;
  /// The obs::Scope installed when the budget was built: trips attribute
  /// to the query that configured the limit, no matter which worker
  /// thread observes the trip first (its own installed scope may be the
  /// same one, another query's, or none).
  obs::Scope scope;

  /// Records the first trip (later trips keep the original reason) and
  /// cancels the token so workers blocked on coarser checks see it.
  /// Returns false always, for tail-calling from the check functions.
  bool Trip(StopReason why) {
    const obs::ScopeGuard scope_guard(scope);
    int expected = static_cast<int>(StopReason::kNone);
    if (reason.compare_exchange_strong(expected, static_cast<int>(why),
                                       std::memory_order_acq_rel)) {
      trip_micros.store(NowMicros(), std::memory_order_release);
      token.Cancel();
      if (why != StopReason::kNone) {
        scope.SetTripReason(StopReasonToString(why));
      }
      switch (why) {
        case StopReason::kDeadline:
          PSC_OBS_COUNTER_INC("limits.deadline_hits");
          break;
        case StopReason::kNodeBudget:
          PSC_OBS_COUNTER_INC("limits.budget_hits");
          break;
        case StopReason::kCancelled:
          PSC_OBS_COUNTER_INC("limits.cancellations");
          break;
        case StopReason::kNone:
          break;
      }
    } else {
      // An already-tripped budget: this thread is observing the trip,
      // possibly for the first time. Record how stale its view was.
      const uint64_t tripped_at =
          trip_micros.load(std::memory_order_acquire);
      const uint64_t now = NowMicros();
      PSC_OBS_HISTOGRAM_RECORD("limits.cancel_latency_us",
                               now > tripped_at ? now - tripped_at : 0);
    }
    return false;
  }

  StopReason CurrentReason() const {
    return static_cast<StopReason>(reason.load(std::memory_order_acquire));
  }
};

Budget::Budget(const BudgetOptions& options)
    : state_(std::make_shared<State>()) {
  state_->options = options;
  if (const CallLimits* ambient = AmbientCallLimits(); ambient != nullptr) {
    state_->options.deadline_ms =
        TightenLimit(state_->options.deadline_ms, ambient->deadline_ms);
    state_->options.node_budget =
        TightenLimit(state_->options.node_budget, ambient->node_budget);
  }
  // Budgets are built on the query's entry path, before fan-out, so the
  // scope installed here is the query the limits belong to.
  state_->scope = obs::CurrentScope();
  if (options.cancel.has_value()) state_->token = *options.cancel;
  if (state_->options.deadline_ms > 0) {
    // A deadline past the clock's range is no deadline: adding it to now()
    // would overflow the clock's tick count and wrap into the past.
    const Clock::time_point now = Clock::now();
    const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::time_point::max() - now);
    if (state_->options.deadline_ms < headroom.count()) {
      state_->deadline =
          now + std::chrono::milliseconds(state_->options.deadline_ms);
    }
  }
}

Budget Budget::WithDeadline(int64_t deadline_ms) {
  BudgetOptions options;
  options.deadline_ms = deadline_ms;
  return Budget(options);
}

Budget Budget::WithNodeBudget(uint64_t nodes) {
  BudgetOptions options;
  options.node_budget = nodes;
  return Budget(options);
}

bool Budget::Charge(uint64_t n) const {
  if (state_ == nullptr) return true;
  State& s = *state_;
  if (s.CurrentReason() != StopReason::kNone) {
    return s.Trip(StopReason::kNone);  // records observer latency
  }
  const uint64_t total = s.nodes.fetch_add(n, std::memory_order_relaxed) + n;
  if (s.token.cancelled()) return s.Trip(StopReason::kCancelled);
  if (s.options.node_budget != 0 && total > s.options.node_budget) {
    return s.Trip(StopReason::kNodeBudget);
  }
  // Poll the clock when this charge crossed a stride boundary (always,
  // for charges of at least one full stride).
  if (s.deadline != Clock::time_point::max() &&
      (total % kDeadlineStride < n || n >= kDeadlineStride)) {
    if (Clock::now() >= s.deadline) return s.Trip(StopReason::kDeadline);
  }
  return true;
}

bool Budget::Expired() const {
  if (state_ == nullptr) return false;
  State& s = *state_;
  if (s.CurrentReason() != StopReason::kNone) {
    s.Trip(StopReason::kNone);  // records observer latency
    return true;
  }
  if (s.token.cancelled()) return !s.Trip(StopReason::kCancelled);
  if (s.options.node_budget != 0 &&
      s.nodes.load(std::memory_order_relaxed) > s.options.node_budget) {
    return !s.Trip(StopReason::kNodeBudget);
  }
  if (s.deadline != Clock::time_point::max() && Clock::now() >= s.deadline) {
    return !s.Trip(StopReason::kDeadline);
  }
  return false;
}

void Budget::Cancel() const {
  if (state_ == nullptr) return;
  state_->token.Cancel();
  state_->Trip(StopReason::kCancelled);
}

CancelToken Budget::token() const {
  if (state_ == nullptr) return CancelToken();
  return state_->token;
}

StopReason Budget::reason() const {
  if (state_ == nullptr) return StopReason::kNone;
  return state_->CurrentReason();
}

uint64_t Budget::nodes_charged() const {
  if (state_ == nullptr) return 0;
  return state_->nodes.load(std::memory_order_relaxed);
}

Status Budget::ToStatus() const {
  const StopReason why = reason();
  const State* s = state_.get();
  switch (why) {
    case StopReason::kNone:
      return Status::OK();
    case StopReason::kDeadline:
      return Status::DeadlineExceeded(
          StrCat("deadline of ", s->options.deadline_ms, " ms exceeded after ",
                 nodes_charged(), " nodes"));
    case StopReason::kNodeBudget:
      return Status::ResourceExhausted(
          StrCat("node budget of ", s->options.node_budget,
                 " exhausted"));
    case StopReason::kCancelled:
      return Status::DeadlineExceeded(
          StrCat("work cancelled after ", nodes_charged(), " nodes"));
  }
  return Status::Internal("unreachable budget state");
}

ScopedCallLimits::ScopedCallLimits(const CallLimits& limits)
    : limits_(limits) {
  if (!limits_.any()) return;  // empty overlay: keep the null fast path
  installed_ = true;
  previous_ = t_ambient_limits;
  if (previous_ != nullptr) {
    // Nested overlays tighten: the inner guard already sees the outer
    // limits merged in, so one thread-local read suffices in the ctor.
    limits_.deadline_ms =
        TightenLimit(limits_.deadline_ms, previous_->deadline_ms);
    limits_.node_budget =
        TightenLimit(limits_.node_budget, previous_->node_budget);
  }
  t_ambient_limits = &limits_;
}

ScopedCallLimits::~ScopedCallLimits() {
  if (installed_) t_ambient_limits = previous_;
}

const CallLimits* AmbientCallLimits() { return t_ambient_limits; }

}  // namespace limits
}  // namespace psc
