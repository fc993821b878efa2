#include "exec/batch_server.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "support/clock.hpp"
#include "support/fault_injection.hpp"
#include "support/logging.hpp"

namespace cortex::exec {

namespace {

// Fires at the top of a batch dispatch with a TransientError, so the
// retry-then-bisect path is exercisable on demand.
support::FaultSite g_fault_dispatch("server.dispatch");

/// `now_ns` plus `us` microseconds, saturated at the clock's end: a
/// signed int64 overflow is UB, and a wrapped deadline would lie in the
/// past. `us` >= 0, `now_ns` >= 0.
std::int64_t add_us_saturating(std::int64_t now_ns, std::int64_t us) {
  constexpr std::int64_t kEnd = std::numeric_limits<std::int64_t>::max();
  if (us > (kEnd - now_ns) / 1000) return kEnd;
  return now_ns + us * 1000;
}

}  // namespace

const char* to_string(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kError: return "error";
    case RequestStatus::kDeadlineExceeded: return "deadline-exceeded";
    case RequestStatus::kRejected: return "rejected";
    case RequestStatus::kShutdown: return "shutdown";
  }
  return "unknown";
}

std::int64_t BatchServer::default_max_batch() { return 32; }

std::int64_t BatchServer::default_max_wait_us() { return 0; }

BatchServer::BatchServer(EnginePool& pool, BatchServerOptions opts)
    : pool_(pool), opts_(opts), queue_(opts.queue_capacity) {
  if (opts_.max_batch < 1) opts_.max_batch = default_max_batch();
  if (opts_.max_wait_us < 0) opts_.max_wait_us = 0;
  if (opts_.dispatchers < 1) opts_.dispatchers = 1;
  model_is_dag_ = pool_.def().kind() == linearizer::StructureKind::kDag;
  m_batch_hist_.assign(static_cast<std::size_t>(opts_.max_batch) + 1, 0);
  if (opts_.autostart) start();
}

BatchServer::~BatchServer() { shutdown(); }

void BatchServer::start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_ || stopped_) return;
  started_ = true;
  dispatchers_.reserve(static_cast<std::size_t>(opts_.dispatchers));
  for (int d = 0; d < opts_.dispatchers; ++d)
    dispatchers_.emplace_back([this] { dispatcher_main(); });
}

void BatchServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  // Close the intake: new submits fail fast, dispatchers drain what was
  // already accepted (every admitted request still completes), then exit.
  queue_.close();
  for (std::thread& t : dispatchers_) t.join();
  dispatchers_.clear();
  // Anything still queued was never admitted — only possible when the
  // server was never started. Fail it rather than break its promise.
  Request req;
  while (queue_.pop(req))
    complete(req, RequestStatus::kShutdown, "server shut down", {}, 0);
}

std::future<ServedResult> BatchServer::submit(const ds::Tree* tree,
                                              std::int64_t deadline_us) {
  Request req;
  req.tree = tree;
  req.submit_ns = support::monotonic_ns();
  if (deadline_us > 0)
    req.deadline_ns = add_us_saturating(req.submit_ns, deadline_us);
  return submit_request(std::move(req));
}

std::future<ServedResult> BatchServer::submit(const ds::Dag* dag,
                                              std::int64_t deadline_us) {
  Request req;
  req.dag = dag;
  req.submit_ns = support::monotonic_ns();
  if (deadline_us > 0)
    req.deadline_ns = add_us_saturating(req.submit_ns, deadline_us);
  return submit_request(std::move(req));
}

bool BatchServer::validate(Request& req) {
  // The structure-kind check is unconditional: a kind-mismatched request
  // inside a batch would fail the pool's whole-batch guard, hurting its
  // co-batched neighbours.
  if (req.tree != nullptr && model_is_dag_) {
    complete(req, RequestStatus::kError,
             "model " + pool_.def().name + " expects DAG requests, got a tree",
             {}, 0);
    return false;
  }
  if (req.dag != nullptr && !model_is_dag_) {
    complete(req, RequestStatus::kError,
             "model " + pool_.def().name + " expects tree requests, got a DAG",
             {}, 0);
    return false;
  }
  try {
    if (req.tree != nullptr) {
      if (opts_.validate_on_submit) req.tree->validate();
      req.roots = 1;
    } else {
      if (opts_.validate_on_submit) req.dag->validate();
      // One root state per sink node (no successors), in node order —
      // exactly the entries the linearizer collects for this DAG.
      std::int64_t sinks = 0;
      for (std::int64_t v = 0; v < req.dag->num_nodes(); ++v)
        if (req.dag->succs(v).empty()) ++sinks;
      req.roots = sinks;
    }
  } catch (const std::exception& e) {
    complete(req, RequestStatus::kError, e.what(), {}, 0);
    return false;
  }
  return true;
}

std::future<ServedResult> BatchServer::submit_request(Request req) {
  std::future<ServedResult> fut = req.promise.get_future();
  if (!validate(req)) return fut;

  // Counted before the push: once the request is in the queue a
  // dispatcher may complete it immediately, and completed counters must
  // never transiently exceed submitted.
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++m_submitted_;
    if (m_first_submit_ns_ == 0) m_first_submit_ns_ = req.submit_ns;
  }
  const bool pushed = opts_.on_full == BatchServerOptions::OnFull::kBlock
                          ? queue_.push(std::move(req))
                          : queue_.try_push(std::move(req));
  if (pushed) return fut;
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    --m_submitted_;
  }
  // The queue refused the request. BoundedQueue::push/try_push leave a
  // rejected value intact, so `req` (promise included) is still ours.
  if (queue_.closed())
    complete(req, RequestStatus::kShutdown, "server shut down", {}, 0);
  else
    complete(req, RequestStatus::kRejected,
             "queue full (" + std::to_string(opts_.queue_capacity) + ")", {},
             0);
  return fut;
}

void BatchServer::admit(Request req, std::vector<Request>& batch) {
  req.admit_ns = support::monotonic_ns();
  if (req.deadline_ns > 0 && req.admit_ns > req.deadline_ns) {
    // Expired while queued: complete without occupying a batch slot.
    complete(req, RequestStatus::kDeadlineExceeded, "deadline exceeded", {},
             0);
    return;
  }
  batch.push_back(std::move(req));
}

void BatchServer::dispatcher_main() {
  Request first;
  // pop() blocks for the next request; after shutdown() it drains the
  // remaining accepted requests, then returns false and the dispatcher
  // exits.
  while (queue_.pop(first)) {
    std::vector<Request> batch;
    batch.reserve(static_cast<std::size_t>(opts_.max_batch));
    admit(std::move(first), batch);
    // Coalesce what is already queued. The window end lies in the past
    // at the default max_wait_us = 0, so pop_until is a try-pop and the
    // batch runs at once: requests that arrive while the pool runs queue
    // up and form the next batch. A positive max_wait_us holds the
    // batch open that long after the first admission.
    const std::int64_t window_end =
        add_us_saturating(support::monotonic_ns(), opts_.max_wait_us);
    while (static_cast<std::int64_t>(batch.size()) < opts_.max_batch) {
      Request next;
      if (!queue_.pop_until(next, window_end)) break;
      admit(std::move(next), batch);
    }
    if (batch.empty()) continue;  // everything popped had expired

    {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      ++m_batches_;
      ++m_batch_hist_[batch.size()];
    }
    run_isolated(batch, 0, batch.size(),
                 static_cast<std::int64_t>(batch.size()));
  }
}

void BatchServer::run_isolated(std::vector<Request>& batch, std::size_t first,
                               std::size_t count, std::int64_t coalesced) {
  try {
    runtime::RunResult merged;
    // Transient failures re-run the whole batch, bounded: a
    // TransientError out of the pool means its own shard retries were
    // already exhausted, so this is the last stop before bisection.
    // Deterministic errors skip straight to the catch — re-running a
    // poisoned batch whole can only repeat the failure.
    for (int attempt = 0;; ++attempt) {
      try {
        if (g_fault_dispatch.fire())
          throw TransientError("injected server.dispatch failure");
        if (model_is_dag_) {
          std::vector<const ds::Dag*> dags;
          dags.reserve(count);
          for (std::size_t i = 0; i < count; ++i)
            dags.push_back(batch[first + i].dag);
          merged = pool_.run(dags);
        } else {
          std::vector<const ds::Tree*> trees;
          trees.reserve(count);
          for (std::size_t i = 0; i < count; ++i)
            trees.push_back(batch[first + i].tree);
          merged = pool_.run(trees);
        }
        break;
      } catch (const TransientError& e) {
        if (attempt >= opts_.dispatch_retries) throw;
        {
          std::lock_guard<std::mutex> lock(metrics_mu_);
          ++m_dispatch_retries_;
        }
        support::warn(std::string("dispatcher retrying batch after "
                                  "transient failure: ") +
                      e.what());
      }
    }
    std::vector<std::int64_t> roots_per_request;
    roots_per_request.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      roots_per_request.push_back(batch[first + i].roots);
    auto slices =
        runtime::split_by_request(std::move(merged), roots_per_request);
    for (std::size_t i = 0; i < count; ++i)
      complete(batch[first + i], RequestStatus::kOk, {}, std::move(slices[i]),
               coalesced);
  } catch (const std::exception& e) {
    if (count == 1) {
      complete(batch[first], RequestStatus::kError, e.what(), {}, coalesced);
      return;
    }
    // The pool fails a whole batch on its first shard error; bisect so
    // the poisoned request(s) end up alone while every healthy request
    // still gets its (bit-identical) result. O(log count) re-runs.
    {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      ++m_bisects_;
    }
    const std::size_t half = count / 2;
    run_isolated(batch, first, half, coalesced);
    run_isolated(batch, first + half, count - half, coalesced);
  }
}

void BatchServer::complete(Request& req, RequestStatus status,
                           std::string error,
                           std::vector<std::vector<float>> roots,
                           std::int64_t coalesced) {
  const std::int64_t now = support::monotonic_ns();
  ServedResult res;
  res.status = status;
  res.error = std::move(error);
  res.root_states = std::move(roots);
  res.queue_ns = req.admit_ns > 0
                     ? static_cast<double>(req.admit_ns - req.submit_ns)
                     : 0.0;
  res.e2e_ns = static_cast<double>(now - req.submit_ns);
  res.batch_size = coalesced;
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    switch (status) {
      case RequestStatus::kOk:
        ++m_ok_;
        m_consecutive_failures_ = 0;
        m_e2e_ns_.add(res.e2e_ns);
        m_last_complete_ns_ = now;
        break;
      case RequestStatus::kError:
        ++m_failed_;
        ++m_consecutive_failures_;
        break;
      case RequestStatus::kDeadlineExceeded: ++m_deadline_; break;
      case RequestStatus::kRejected: ++m_rejected_; break;
      case RequestStatus::kShutdown: ++m_shutdown_; break;
    }
    if (req.admit_ns > 0) m_queue_ns_.add(res.queue_ns);
  }
  req.promise.set_value(std::move(res));
}

void BatchServer::LatencyWindow::add(double ns) {
  if (count < ServerMetrics::kLatencyWindow)
    ring.push_back(ns);
  else  // overwrite the oldest sample
    ring[static_cast<std::size_t>(count % ServerMetrics::kLatencyWindow)] = ns;
  ++count;
}

namespace {

ServerMetrics::Latency latency_stats(std::vector<double> samples,
                                     std::int64_t count) {
  ServerMetrics::Latency out;
  out.count = count;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double q) {
    // Nearest-rank percentile on the sorted samples.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    return samples[std::min(samples.size() - 1, std::max<std::size_t>(rank, 1) - 1)];
  };
  out.p50_ns = at(0.50);
  out.p99_ns = at(0.99);
  out.p999_ns = at(0.999);
  out.max_ns = samples.back();
  double sum = 0.0;
  for (const double s : samples) sum += s;
  out.mean_ns = sum / static_cast<double>(samples.size());
  return out;
}

}  // namespace

ServerHealth BatchServer::health() const {
  ServerHealth h;
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    h.consecutive_failures = m_consecutive_failures_;
    h.dispatch_retries = m_dispatch_retries_;
    h.bisect_reruns = m_bisects_;
  }
  const PoolStats ps = pool_.stats();
  h.pool_transient_retries = ps.transient_retries;
  h.pool_batches_failed = ps.batches_failed;
  h.degraded = h.consecutive_failures >= 4;
  return h;
}

ServerMetrics BatchServer::metrics() const {
  ServerMetrics m;
  LatencyWindow queue, e2e;
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    m.submitted = m_submitted_;
    m.completed_ok = m_ok_;
    m.failed = m_failed_;
    m.rejected = m_rejected_;
    m.deadline_missed = m_deadline_;
    m.shutdown_dropped = m_shutdown_;
    m.batches = m_batches_;
    m.bisect_reruns = m_bisects_;
    m.batch_size_hist = m_batch_hist_;
    queue = m_queue_ns_;
    e2e = m_e2e_ns_;
    if (m_ok_ > 0 && m_last_complete_ns_ > m_first_submit_ns_)
      m.throughput_rps =
          static_cast<double>(m_ok_) /
          (static_cast<double>(m_last_complete_ns_ - m_first_submit_ns_) *
           1e-9);
  }
  std::int64_t coalesced_total = 0;
  for (std::size_t k = 1; k < m.batch_size_hist.size(); ++k) {
    coalesced_total +=
        static_cast<std::int64_t>(k) * m.batch_size_hist[k];
    if (m.batch_size_hist[k] > 0)
      m.max_batch_size = static_cast<std::int64_t>(k);
  }
  if (m.batches > 0)
    m.mean_batch_size = static_cast<double>(coalesced_total) /
                        static_cast<double>(m.batches);
  m.queue = latency_stats(std::move(queue.ring), queue.count);
  m.e2e = latency_stats(std::move(e2e.ring), e2e.count);
  return m;
}

}  // namespace cortex::exec
