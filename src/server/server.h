#ifndef QCONT_SERVER_SERVER_H_
#define QCONT_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "base/interner.h"
#include "base/thread_pool.h"
#include "obs/obs.h"
#include "server/plan_cache.h"

namespace qcont {
namespace server {

/// Server configuration. The defaults give a serial, cache-enabled server;
/// `threads` is the one knob production traffic needs.
struct ServerOptions {
  /// Concurrent in-flight requests: each scheduler batch fans its unique
  /// work items out over the process-wide work-stealing pool with this many
  /// workers. 1 = serial (the determinism reference).
  int threads = 1;
  /// Engine-internal parallelism per request (UCQ pair grids, semi-naive
  /// delta rounds). Only useful when `threads == 1`: nested parallel
  /// regions inside a pool worker degrade to serial loops by design.
  int engine_threads = 1;
  /// Admission control: at most this many requests per scheduler batch
  /// (`ServeStream` never buffers more than one batch ahead) ...
  std::size_t max_batch = 32;
  /// ... and any single request line larger than this is rejected up front
  /// with status "overloaded", before JSON parsing.
  std::size_t max_request_bytes = 1 << 20;
  /// Default per-request deadline in milliseconds; 0 = no deadline. A
  /// request's own "deadline_ms" field overrides (0 there = already
  /// expired, the deterministic deadline test hook). Deadlines are
  /// cooperative: checked at admission and between request phases, not
  /// inside an engine run (engines bound work by their own budgets).
  std::uint64_t default_deadline_ms = 0;
  /// Pre-pass for containment queries: replace Θ by its minimized
  /// equivalent (per-disjunct cores, subsumption-pruned; MinimizeUnionQuery
  /// on the small-CQ kernel, recomputed per request) so the verdict cache
  /// also unifies redundant variants of one query. Skipped for queries
  /// above a small size guard (core computation is worst-case
  /// exponential).
  bool minimize_queries = true;
  /// Plan-cache capacities. `cache.obs` is overridden with `obs`.
  PlanCacheConfig cache;
  /// Observability sinks (optional, borrowed): `server/*` spans per batch,
  /// request, and phase; `server.*` counters; plan-cache counters.
  const ObsContext* obs = nullptr;
};

/// Monotonic server counters (also mirrored to the obs registry when a
/// sink is configured).
struct ServerStats {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t coalesced = 0;  // duplicates folded into a batch leader
  std::uint64_t batches = 0;
};

/// A long-running containment-as-a-service driver over newline-delimited
/// JSON. One request per line:
///
///   {"id":1,"op":"containment","program":"...","query":"..."}
///   {"id":2,"op":"eval","program":"...","database":"..."}
///   {"id":3,"op":"analyze","query":"...","program":"..."}   (program opt.)
///
/// and one response line per request, in request order (schema v1, see
/// DESIGN.md §15). All requests share one Interner value pool, one plan
/// cache, and the process-wide thread pool.
///
/// Scheduling: requests are taken in batches of at most `max_batch`;
/// within a batch, requests with the same canonical work key (op +
/// canonical hashes) are coalesced — one leader computes, the duplicates
/// reuse its result with cache marker "coalesced". Unique work items fan
/// out over the pool. Because batch formation, coalescing, and the
/// engines themselves are deterministic, and cache hit/miss markers are
/// decided against the cache state at batch start (PlanCache epochs:
/// entries inserted by a concurrently running work item of the same
/// batch are reused but reported "miss"), the response stream (modulo
/// the elapsed_us timing field) is identical for every `threads` value.
///
/// Thread safety: one Server may be driven from one thread at a time
/// (`ServeStream`/`HandleBatch`/`HandleLine` are not reentrant); the
/// concurrency happens inside HandleBatch.
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Processes one request line; returns one response line (no '\n').
  std::string HandleLine(const std::string& line);

  /// Processes a batch of request lines (split internally into chunks of
  /// `max_batch`); returns one response line per request, in order.
  std::vector<std::string> HandleBatch(const std::vector<std::string>& lines);

  /// Replays a newline-delimited request stream: greedily groups already-
  /// buffered input lines into batches (so piped replay files get full
  /// batches while an interactive session gets batch size 1), writes one
  /// response line per request in request order, flushing after each
  /// batch. Returns at end of input.
  void ServeStream(std::istream& in, std::ostream& out);

  PlanCache& cache() { return cache_; }
  const std::shared_ptr<Interner>& pool() const { return pool_; }
  ServerStats stats() const;

 private:
  std::vector<std::string> HandleChunk(const std::vector<std::string>& lines);

  ServerOptions options_;
  std::shared_ptr<Interner> pool_;  // shared value pool across all requests
  PlanCache cache_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> overloaded_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> batches_{0};
};

}  // namespace server
}  // namespace qcont

#endif  // QCONT_SERVER_SERVER_H_
