#pragma once
// BatchServer: the dynamic-batching request-queue front-end over
// exec::EnginePool — the piece that turns the repo's batch harness into a
// server (ROADMAP: BatchMaker-style cellular batching; Gao et al., and
// Jeong et al.'s recursion batching in PAPERS.md).
//
// The paper's batching story (Cortex linearizes recursive structures so a
// whole mini-batch runs as dense wavefront panels) only pays off in
// production if single-structure requests are coalesced into those
// mini-batches: one SST-sized tree alone runs one-row "panels" (GEMVs),
// while 64 coalesced trees run the same depths as wide panel GEMMs that
// are several times cheaper per structure. This server does that
// coalescing without adding latency at low load:
//
//   client threads ──submit()──► BoundedQueue ──► dispatcher(s)
//        ▲                                          │  coalesce what is
//        └──────── std::future<ServedResult> ◄──────┘  queued, ≤ max_batch,
//                                                      EnginePool::run,
//                                                      demux per request
//
//   - submit() is future-style: it enqueues one Tree/DAG request and
//     returns immediately; the caller joins on the future. One structure
//     instance must not be in flight twice at once (the linearizer
//     writes per-node scratch into it), and it must stay alive until the
//     future resolves.
//   - A dispatcher pops the oldest request, admits whatever else is
//     already queued (up to max_batch) and runs the batch at once: the
//     default is greedy and work-conserving. A lone request on an idle
//     server waits for nothing; under load, requests that arrive while
//     the pool runs queue up and form the next, larger batch, so
//     batching costs latency only when there is load to batch. A
//     positive max_wait_us is an opt-in window that holds each batch
//     open that long for more requests, trading latency for batch size.
//     The batch runs on the EnginePool, which shards it across worker
//     engines; per-request root states are sliced back out of the merged
//     result (runtime::split_by_request) in submission order.
//   - Deadlines: a request with deadline_us > 0 that is already expired
//     when a dispatcher would admit it completes with kDeadlineExceeded
//     and never occupies a batch slot.
//   - Backpressure: the queue is bounded. OnFull::kBlock makes submit()
//     wait for space (closed-loop degradation); OnFull::kReject completes
//     the request immediately with kRejected.
//   - Failure isolation: EnginePool::run fails a whole batch on the first
//     shard error, so the server (a) optionally pre-validates structures
//     at admission (validate_on_submit), (b) re-runs a batch that failed
//     with cortex::TransientError (a failure that may succeed on retry —
//     the pool's own bounded shard retries were already exhausted) up to
//     dispatch_retries times, and (c) re-runs a deterministically failing
//     batch bisection-style: halves recursively until the poisoned
//     requests are alone and fail individually (kError) while every
//     healthy co-batched request still completes with results
//     bit-identical to an uncoalesced run. O(log batch) re-runs in the
//     failure case, zero overhead on the happy path.
//   - Health: health() snapshots the degradation state — consecutive
//     request failures, retry / bisection counters — cheap enough for a
//     readiness probe to poll.
//
// Fault-injection site (support/fault_injection.hpp): server.dispatch —
// throws a TransientError at the top of a batch dispatch, exercising the
// retry-then-bisect path above on demand.
//   - Metrics: counters plus p50/p99/p999 of queue and end-to-end
//     latency over the most recent 16384 requests, an achieved-batch-size
//     histogram and served throughput (metrics(), cheap enough to poll).
//
// Determinism: coalescing never perturbs numerics — each structure's node
// states depend only on its own nodes (the engine-pool invariant), so a
// request's root states are bit-identical whether it rode a batch of 1 or
// of max_batch, at any worker count. Pinned by tests/test_batch_server*.

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine_pool.hpp"
#include "support/bounded_queue.hpp"

namespace cortex::exec {

/// Terminal state of one served request.
enum class RequestStatus {
  kOk,                ///< root_states carries the result
  kError,             ///< structure rejected or failed; see error
  kDeadlineExceeded,  ///< expired before a dispatcher could admit it
  kRejected,          ///< bounded queue full under OnFull::kReject
  kShutdown,          ///< server shut down before the request was served
};

const char* to_string(RequestStatus status);

/// What a submit() future resolves to.
struct ServedResult {
  RequestStatus status = RequestStatus::kError;
  /// Error detail for kError (validation or execution failure message).
  std::string error;
  /// On kOk: the request's root states — one entry for a tree request,
  /// one per sink node (in node order) for a DAG request. Bit-identical
  /// to a direct EnginePool::run over the same structure.
  std::vector<std::vector<float>> root_states;
  /// Time from submit() to a dispatcher admitting (or expiring) the
  /// request; 0 when it never reached a dispatcher.
  double queue_ns = 0.0;
  /// Time from submit() to completion.
  double e2e_ns = 0.0;
  /// Requests coalesced into the mini-batch this one rode in (including
  /// itself); 0 when it was never batched.
  std::int64_t batch_size = 0;
};

struct BatchServerOptions {
  /// Largest coalesced mini-batch. < 1 uses default_max_batch() (32).
  std::int64_t max_batch = 0;
  /// Coalescing window: how long a dispatcher holds a batch open for more
  /// requests after popping the first one. The default 0 is greedy: the
  /// batch takes only what is already queued and runs at once. A positive
  /// window is an opt-in that trades latency for larger batches (an open
  /// loop past pass-through capacity). < 0 clamps to 0.
  std::int64_t max_wait_us = 0;
  /// Bound of the admission queue (the backpressure knob).
  std::size_t queue_capacity = 1024;
  /// What submit() does when the queue is full.
  enum class OnFull { kBlock, kReject };
  OnFull on_full = OnFull::kBlock;
  /// Validate structures on the client thread at submit() (Tree/Dag
  /// ::validate() plus the structure-kind check): malformed requests
  /// fail fast with kError and never reach a batch. The bisection
  /// fallback still isolates anything validation cannot catch. The
  /// structure-kind check is always on — a kind mismatch would fail the
  /// whole batch inside the pool.
  bool validate_on_submit = true;
  /// Dispatcher threads forming and running batches concurrently. One
  /// dispatcher forms the largest batches; a second overlaps batch
  /// formation with pool execution under load.
  int dispatchers = 1;
  /// Start dispatchers in the constructor. Tests set false to stage
  /// deterministic queue states, then call start().
  bool autostart = true;
  /// Times a batch that failed with cortex::TransientError is re-run
  /// whole before falling back to bisection; 0 bisects at once.
  /// Deterministic batch failures go straight to bisection — re-running a
  /// poisoned batch whole can only repeat the failure.
  int dispatch_retries = 1;
};

/// Point-in-time health snapshot (BatchServer::health). What a readiness
/// probe polls: `degraded` says whether the server is currently failing
/// requests, the counters say how often each recovery path absorbed a
/// fault since construction.
struct ServerHealth {
  /// consecutive_failures >= 4: the server is up but failing requests
  /// repeatedly — worth paging over.
  bool degraded = false;
  /// Requests that resolved kError since the last kOk (a kOk resets the
  /// run; kError extends it). Feeds `degraded` at >= 4.
  std::int64_t consecutive_failures = 0;
  std::int64_t dispatch_retries = 0;  ///< whole-batch transient re-runs
  std::int64_t bisect_reruns = 0;     ///< poisoned-batch isolation re-runs
  /// Shard re-runs inside this server's pool (PoolStats).
  std::int64_t pool_transient_retries = 0;
  std::int64_t pool_batches_failed = 0;  ///< pool errors that propagated
};

/// Point-in-time metrics snapshot (all counters since construction).
struct ServerMetrics {
  /// Latency samples each series keeps, in a fixed ring (bounded memory).
  static constexpr std::int64_t kLatencyWindow = 16384;

  /// `count` covers every sample; the rest cover the last kLatencyWindow.
  struct Latency {
    std::int64_t count = 0;
    double p50_ns = 0.0;
    double p99_ns = 0.0;
    double p999_ns = 0.0;
    double max_ns = 0.0;
    double mean_ns = 0.0;
  };

  std::int64_t submitted = 0;         ///< accepted into the queue
  std::int64_t completed_ok = 0;      ///< resolved kOk
  std::int64_t failed = 0;            ///< resolved kError
  std::int64_t rejected = 0;          ///< resolved kRejected (backpressure)
  std::int64_t deadline_missed = 0;   ///< resolved kDeadlineExceeded
  std::int64_t shutdown_dropped = 0;  ///< resolved kShutdown while queued

  std::int64_t batches = 0;        ///< mini-batches dispatched to the pool
  std::int64_t bisect_reruns = 0;  ///< failing-batch bisection re-runs
  /// batch_size_hist[k] = mini-batches that coalesced exactly k requests
  /// (index 0 unused); size max_batch + 1.
  std::vector<std::int64_t> batch_size_hist;
  double mean_batch_size = 0.0;
  std::int64_t max_batch_size = 0;

  Latency queue;  ///< submit -> admission, requests that reached a batch
  Latency e2e;    ///< submit -> completion, kOk requests
  /// completed_ok divided by the first-submit -> last-completion window.
  double throughput_rps = 0.0;
};

class BatchServer {
 public:
  /// Serves `pool` (not owned; must outlive the server). Throws on
  /// invalid option combinations.
  explicit BatchServer(EnginePool& pool, BatchServerOptions opts = {});
  /// Shuts down: stops intake, drains started dispatchers (every
  /// admitted request completes), fails still-queued requests with
  /// kShutdown.
  ~BatchServer();
  BatchServer(const BatchServer&) = delete;
  BatchServer& operator=(const BatchServer&) = delete;

  /// Enqueues a single-structure request. deadline_us > 0 bounds how
  /// long it may sit in the queue before admission; a deadline past the
  /// clock's range is no deadline. The returned future always resolves
  /// (never a broken promise).
  std::future<ServedResult> submit(const ds::Tree* tree,
                                   std::int64_t deadline_us = 0);
  std::future<ServedResult> submit(const ds::Dag* dag,
                                   std::int64_t deadline_us = 0);

  /// Spawns the dispatcher threads (no-op if already started).
  void start();
  /// Stops intake and joins dispatchers; idempotent. See ~BatchServer.
  void shutdown();

  ServerMetrics metrics() const;
  /// Degradation snapshot (see ServerHealth); as cheap as metrics().
  ServerHealth health() const;

  const BatchServerOptions& options() const { return opts_; }
  EnginePool& pool() { return pool_; }

  /// max_batch when BatchServerOptions leaves it unset: 32.
  static std::int64_t default_max_batch();
  /// max_wait_us when BatchServerOptions leaves it unset: 0 (greedy).
  static std::int64_t default_max_wait_us();

 private:
  struct Request {
    const ds::Tree* tree = nullptr;
    const ds::Dag* dag = nullptr;
    /// Root-state entries this request will contribute to a merged batch
    /// result (1 for trees, #sinks for DAGs) — the demux counts.
    std::int64_t roots = 0;
    std::int64_t submit_ns = 0;
    std::int64_t deadline_ns = 0;  ///< 0 = no deadline (monotonic ns)
    std::int64_t admit_ns = 0;     ///< set when a dispatcher admits it
    std::promise<ServedResult> promise;
  };

  std::future<ServedResult> submit_request(Request req);
  /// Validates kind (+ full structure when validate_on_submit) and fills
  /// Request::roots. Returns false after completing the request kError.
  bool validate(Request& req);
  void dispatcher_main();
  /// Admits a popped request into the forming batch, or completes it
  /// with kDeadlineExceeded without occupying a slot.
  void admit(Request req, std::vector<Request>& batch);
  /// Runs [first, first + count) of `batch`, bisecting on failure so one
  /// poisoned request cannot fail its co-batched neighbours.
  void run_isolated(std::vector<Request>& batch, std::size_t first,
                    std::size_t count, std::int64_t coalesced);
  void complete(Request& req, RequestStatus status, std::string error,
                std::vector<std::vector<float>> roots, std::int64_t coalesced);

  EnginePool& pool_;
  BatchServerOptions opts_;
  bool model_is_dag_ = false;
  support::BoundedQueue<Request> queue_;

  std::mutex lifecycle_mu_;  ///< guards started_/stopped_ transitions
  bool started_ = false;
  bool stopped_ = false;
  std::vector<std::thread> dispatchers_;

  // -- metrics (one mutex; all counters nanosecond-cheap next to a run) --
  mutable std::mutex metrics_mu_;
  std::int64_t m_submitted_ = 0;
  std::int64_t m_ok_ = 0;
  std::int64_t m_failed_ = 0;
  std::int64_t m_rejected_ = 0;
  std::int64_t m_deadline_ = 0;
  std::int64_t m_shutdown_ = 0;
  std::int64_t m_batches_ = 0;
  std::int64_t m_bisects_ = 0;
  std::int64_t m_dispatch_retries_ = 0;
  std::int64_t m_consecutive_failures_ = 0;
  std::vector<std::int64_t> m_batch_hist_;
  /// The last ServerMetrics::kLatencyWindow samples and the total count.
  struct LatencyWindow {
    std::vector<double> ring;
    std::int64_t count = 0;
    void add(double ns);
  };
  LatencyWindow m_queue_ns_;
  LatencyWindow m_e2e_ns_;
  std::int64_t m_first_submit_ns_ = 0;
  std::int64_t m_last_complete_ns_ = 0;
};

}  // namespace cortex::exec
