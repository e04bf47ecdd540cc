#ifndef PSC_SYNC_RANK_H_
#define PSC_SYNC_RANK_H_

/// \file
/// The project-wide lock hierarchy.
///
/// Every psc::sync::Mutex/SharedMutex is constructed with a name and one
/// of these ranks. The invariant: a thread may only acquire a lock whose
/// rank is STRICTLY GREATER than every lock it already holds. Since the
/// relation is a total order, no cycle of acquisitions — and therefore no
/// deadlock among ranked locks — is possible. Debug builds (and any build
/// with PSC_SYNC_RANK_CHECKS=1 in the environment) enforce the invariant
/// at runtime and abort with both lock names on the first violation; see
/// mutex.cc.
///
/// Reading the table: low ranks are OUTER locks (taken first, near the
/// service edge), high ranks are INNER locks (leaf utilities such as the
/// metrics registry that any subsystem may call into while holding its
/// own lock). When adding a lock, place it after everything it may be
/// acquired under and before everything that may be acquired under it,
/// and record it in DESIGN.md §14. Gaps between values are intentional
/// room for insertion.

namespace psc::sync {

// serve:: — the daemon edge. Engine::mutex_ is the outermost lock in the
// process: dispatch holds it while touching queues and then emits
// metrics/traces (inner ranks) on the way out.
inline constexpr int kRankServeQueue = 10;        // serve.engine.queue
inline constexpr int kRankServeCollections = 20;  // serve.engine.collections
inline constexpr int kRankServeConnections = 30;  // serve.socket.connections
inline constexpr int kRankServeWrite = 35;        // serve.socket.write

// delta:: — collection state. ApplyDelta takes data exclusively, then the
// plan/report cache, then calls down into eval/exec.
inline constexpr int kRankDeltaData = 40;   // delta.data (SharedMutex)
inline constexpr int kRankDeltaCache = 50;  // delta.cache

// consistency:: — per-search coordination inside the parallel
// canonical-freeze solver.
inline constexpr int kRankSearchOutcome = 60;  // consistency.search

// eval/exec:: — solver-internal caches and the thread-pool runtime. Query
// evaluation may populate the index cache or the containment memo while a
// delta lock is held; the shared-pool registry is taken by solvers under
// a delta lock and builds a pool (which emits metrics) while held; the
// pool's queue lock nests inside everything that submits work.
inline constexpr int kRankEvalIndexCache = 70;  // eval.index_cache
inline constexpr int kRankMemoShard = 75;       // exec.memo_shard
inline constexpr int kRankExecRegistry = 78;    // exec.pool.registry
inline constexpr int kRankExecQueue = 80;       // exec.pool.queue
inline constexpr int kRankExecLatch = 90;       // exec.parallel.latch
inline constexpr int kRankServeDone = 95;       // serve.engine.call_done

// obs:: — the leaves. Any lock holder may emit a metric, append a trace
// record, or log a warning, so these must outrank the entire solver and
// service stack. Within obs, the one nesting that exists is
// log-once(seen) -> log sink.
inline constexpr int kRankObsScopeTrip = 100;      // obs.scope.trip
inline constexpr int kRankObsScopeRegistry = 105;  // obs.scope.registry
inline constexpr int kRankObsTraceBuffer = 110;    // obs.trace.buffer
inline constexpr int kRankObsMetrics = 115;        // obs.metrics.registry
inline constexpr int kRankObsLogSeen = 120;        // obs.log.seen
inline constexpr int kRankObsLogSink = 125;        // obs.log.sink

}  // namespace psc::sync

#endif  // PSC_SYNC_RANK_H_
