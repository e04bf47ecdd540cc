#ifndef PSC_LIMITS_BUDGET_H_
#define PSC_LIMITS_BUDGET_H_

/// \file
/// Unified resource limits for the solver stack.
///
/// Every solver in this library (consistency search, template enumeration,
/// the Section 5.1 counters, Monte-Carlo answering) is worst-case
/// exponential — Theorem 3.2 proves CONSISTENCY NP-complete — so a serving
/// deployment must be able to bound latency and degrade gracefully. A
/// `Budget` packages the three limits every hot path understands:
///
///  * a **wall-clock deadline** (steady_clock; immune to NTP jumps),
///  * an **explored-node budget** (combinations, count vectors, worlds,
///    samples — whatever "one unit of search work" means locally),
///  * a shared **cancel token** (`CancelToken`) so an external caller
///    (RPC teardown, a user's ^C) can revoke in-flight work.
///
/// Copies of a `Budget` share state: hand the same budget to every worker
/// thread and the first observer of an exceeded limit trips it for all of
/// them. A default-constructed budget is *unlimited* and its checks are a
/// single null test — solvers therefore thread budgets unconditionally and
/// pay nothing when no limit was configured, keeping limit-free runs
/// bit-identical to historical behaviour.
///
/// Cooperative protocol: hot loops call `Charge(n)` per unit of work and
/// unwind (returning `ToStatus()`, or a structured partial result where
/// one exists) as soon as it returns false. Coarse-grained loops whose
/// units are expensive call `Expired()` — an unconditional clock poll —
/// between units. Nothing is ever killed mid-flight.
///
/// Observability: tripping increments `limits.deadline_hits` /
/// `limits.budget_hits` / `limits.cancellations`, and every thread that
/// subsequently observes the trip records how stale its view was into the
/// `limits.cancel_latency_us` histogram.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>

#include "psc/util/status.h"

namespace psc {
namespace limits {

/// \brief Shared sticky cancellation flag.
///
/// Copies observe the same underlying state; `Cancel()` is sticky and
/// thread-safe. Workers poll `cancelled()` — one relaxed atomic load —
/// between units of work.
class CancelToken {
 public:
  CancelToken() : state_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() const { state_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return state_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

/// \brief Why a budget stopped admitting work.
enum class StopReason {
  kNone = 0,
  kDeadline,
  kNodeBudget,
  kCancelled,
};

const char* StopReasonToString(StopReason reason);

/// \brief Limit configuration; zero always means "unlimited".
struct BudgetOptions {
  /// Wall-clock deadline in milliseconds from budget construction. A
  /// deadline past the steady clock's range (about 292 years) is none.
  int64_t deadline_ms = 0;
  /// Maximum units of search work (`Charge` calls, weighted).
  uint64_t node_budget = 0;
  /// External cancellation source adopted as *the* budget token: a
  /// `Cancel()` on any copy of it trips the budget at its next check,
  /// exactly like `Budget::Cancel`. Lets one long-lived token (a server's
  /// shutdown drain, the CLI's ^C handler) revoke many per-call budgets
  /// built after it. Unset: the budget creates a private token.
  std::optional<CancelToken> cancel;
};

/// \brief Shared deadline / work-budget context. Cheap to copy (one
/// shared_ptr); copies share the node counter, the trip state and the
/// cancel token. See the file comment for the protocol.
class Budget {
 public:
  /// Unlimited budget: every check passes, at the cost of one null test.
  Budget() = default;

  explicit Budget(const BudgetOptions& options);

  static Budget Unlimited() { return Budget(); }
  static Budget WithDeadline(int64_t deadline_ms);
  static Budget WithNodeBudget(uint64_t nodes);

  /// True when any limit (or a cancel token) is attached.
  bool active() const { return state_ != nullptr; }

  /// \brief Charges `n` units of work; returns true while within budget.
  ///
  /// The node counter is exact; the wall clock is polled every
  /// `kDeadlineStride` charged units (and on every call with n >=
  /// kDeadlineStride), so deadline detection lags at most one stride of
  /// cheap work. Thread-safe; the first failing observer trips the shared
  /// state and cancels the token.
  bool Charge(uint64_t n = 1) const;

  /// \brief Polls every limit, including an unconditional clock read,
  /// without charging work. For coarse loops with expensive units.
  bool Expired() const;

  /// Revokes all work sharing this budget (sticky).
  void Cancel() const;

  /// The shared token; observed by `exec::ParallelFor` between shards.
  /// Cancelling the token trips the budget at its next check and vice
  /// versa. Null-state (unlimited) budgets return a token that is never
  /// cancelled by the budget, but `Cancel()` on a *copy* of it still
  /// propagates to other copies of that same token.
  CancelToken token() const;

  /// Why the budget tripped (kNone while within limits).
  StopReason reason() const;

  /// Units charged so far.
  uint64_t nodes_charged() const;

  /// OK while within limits; otherwise `DeadlineExceeded` (deadline or
  /// cancellation) or `ResourceExhausted` (node budget) with a message
  /// naming the bound reached.
  Status ToStatus() const;

  /// Wall-clock poll stride for `Charge`, in charged units.
  static constexpr uint64_t kDeadlineStride = 64;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

/// \name Ambient per-call limits
///
/// A thread-local overlay merged into every `Budget` constructed while it
/// is installed — the same design as `obs::Scope`: solver facades
/// (`QuerySystem`, `delta::IncrementalSystem`) build budgets from options
/// fixed at *creation* time, but a serving dispatcher admits each request
/// with its own deadline and node ceiling decided at *dispatch* time.
/// Installing a `ScopedCallLimits` around the call makes every budget the
/// call builds respect the tighter of the two configurations:
///
///   limits::CallLimits admitted;
///   admitted.deadline_ms = 50;           // this request's admission slice
///   {
///     limits::ScopedCallLimits guard(admitted);
///     system->CheckConsistency();        // per-call budgets now run with
///   }                                    // min(option, ambient) limits
///
/// Merging always tightens: a nonzero ambient deadline/node budget caps
/// the option value (min of the two nonzero values); it never loosens a
/// configured limit and never touches budgets built on other threads.
/// Workers reached through `exec` fan-out inherit the *budget*, which was
/// built on the installing thread, so no per-worker reinstallation is
/// needed. With empty limits the guard is a no-op and budget construction
/// keeps the historical zero-overhead null path.
/// @{

struct CallLimits {
  /// Wall-clock ceiling for budgets built under the guard; 0 = none.
  int64_t deadline_ms = 0;
  /// Explored-node ceiling for budgets built under the guard; 0 = none.
  uint64_t node_budget = 0;

  bool any() const { return deadline_ms > 0 || node_budget > 0; }
};

/// RAII installation on the current thread; nests (the previous overlay
/// is reinstalled on destruction). Empty limits install nothing.
class ScopedCallLimits {
 public:
  explicit ScopedCallLimits(const CallLimits& limits);
  ~ScopedCallLimits();

  ScopedCallLimits(const ScopedCallLimits&) = delete;
  ScopedCallLimits& operator=(const ScopedCallLimits&) = delete;

 private:
  bool installed_ = false;
  CallLimits limits_;
  const CallLimits* previous_ = nullptr;
};

/// The overlay installed on the calling thread, or nullptr. Facades use
/// this to keep building the zero-overhead null budget when neither their
/// options nor the ambient overlay configure any limit.
const CallLimits* AmbientCallLimits();

/// @}

}  // namespace limits
}  // namespace psc

#endif  // PSC_LIMITS_BUDGET_H_
