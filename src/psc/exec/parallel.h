#ifndef PSC_EXEC_PARALLEL_H_
#define PSC_EXEC_PARALLEL_H_

/// \file
/// Deterministic fork-join facade over `ThreadPool`.
///
/// `ParallelFor` runs an index space on the pool and blocks until every
/// index completed. `ParallelReduce` additionally collects one partial
/// result per shard and merges them **in shard order** on the calling
/// thread, so reductions over non-commutative structures (witness
/// selection, error precedence, BigInt totals that must match the
/// sequential fold bit-for-bit) are reproducible regardless of how many
/// workers ran or how the OS scheduled them.
///
/// Both degrade to a plain sequential loop when `pool` is null, the pool
/// has one worker, or the index space is trivial — the sequential path
/// executes the exact same shard bodies in the exact same order, which is
/// what makes `--threads 1` byte-identical to the pre-parallel code.

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "psc/exec/thread_pool.h"
#include "psc/limits/budget.h"

namespace psc {
namespace exec {

/// \brief Runs `body(i)` for every i in [0, n), potentially in parallel.
///
/// Blocks until all invocations returned. `body` must be safe to call
/// concurrently from different workers for different indices. With a null
/// or single-worker pool the loop runs inline, in index order.
///
/// On a pool, the calling thread and up to `pool->size() - 1` helper
/// tasks claim indices one at a time; the caller runs every index no
/// helper claimed, so the call never waits on queued work. It may be
/// called from inside a shard, on the same pool, to any depth. Helpers
/// that start after the call returned find no index left and return.
///
/// When `cancel` is non-null, workers observe the token **between
/// shards**: an index whose turn comes after the token was cancelled is
/// skipped entirely (its `body` is never entered), so a tripped deadline
/// cancels queued work instead of draining it. In-flight bodies are never
/// interrupted — cancellation inside a shard stays the shard's own
/// (cooperative) responsibility.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& body,
                 const limits::CancelToken* cancel = nullptr);

/// \brief Shard-and-merge reduction with a deterministic merge order.
///
/// `shard(i)` produces the i-th partial result (concurrently); `merge`
/// folds partials into `acc` strictly in shard order 0,1,…,n−1 on the
/// calling thread. The result therefore equals the sequential fold for
/// any pool size.
///
/// With a non-null `cancel`, shards queued behind a cancellation are
/// skipped (see ParallelFor) and never reach `merge`: the result folds
/// exactly the shards that ran. A caller that needs every shard checks
/// the token after the call.
template <typename T, typename ShardFn, typename MergeFn>
T ParallelReduce(ThreadPool* pool, size_t n, T init, const ShardFn& shard,
                 const MergeFn& merge,
                 const limits::CancelToken* cancel = nullptr) {
  T acc = std::move(init);
  if (pool == nullptr || pool->size() <= 1 || n <= 1) {
    // ParallelFor's inline loop: shards in index order, each merged as it
    // finishes, and shards skipped after a cancel counted.
    ParallelFor(
        nullptr, n, [&](size_t i) { merge(acc, shard(i)); }, cancel);
    return acc;
  }
  // Only the shards that ran hold a part.
  std::vector<std::optional<T>> parts(n);
  ParallelFor(
      pool, n, [&](size_t i) { parts[i].emplace(shard(i)); }, cancel);
  for (std::optional<T>& part : parts) {
    if (part.has_value()) merge(acc, std::move(*part));
  }
  return acc;
}

}  // namespace exec
}  // namespace psc

#endif  // PSC_EXEC_PARALLEL_H_
