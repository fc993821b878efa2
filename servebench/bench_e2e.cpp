// End-to-end wall-clock serving benchmark.
//
// One process runs one workload: it builds its inputs from the seed,
// computes every distinct input's root states once with the eager oracle,
// sets up the serving stack (EnginePool with two workers, BatchServer at
// library defaults), drives a warm-up then a measured window of load from
// one generator thread, checks every served result bitwise against the
// oracle, and prints one JSON line with its metrics. run.py builds this
// binary, spawns it per workload (plus fresh --setup-only processes for
// the cold-start metric) and formats the results; README.md defines the
// workloads and metrics.
//
// Only public APIs are called: BatchServer, EnginePool, CortexEngine,
// linearizer::linearize_*, PlanCache, baselines::EagerEngine. Spans are
// recorded here, around those calls, never inside the library.
//
// Usage:
//   bench_e2e --workload NAME --seed N --seconds S [--trace-out FILE]
//             [--setup-only] [--smoke]

#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/common.hpp"
#include "baselines/eager.hpp"
#include "ds/generators.hpp"
#include "exec/batch_server.hpp"
#include "exec/engine.hpp"
#include "exec/engine_pool.hpp"
#include "exec/plan_cache.hpp"
#include "linearizer/linearizer.hpp"
#include "models/model_zoo.hpp"
#include "support/clock.hpp"

using namespace cortex;

namespace {

// Two pool workers + the server's single default dispatcher + the one
// generator thread: four busy threads on a four-core host.
constexpr int kWorkers = 2;
// Instance copies per workload: a structure must not be in flight twice
// at once (the linearizer writes per-node scratch into it), so request k
// rides copy k % kInstances and waits for request k - kInstances first.
constexpr std::size_t kInstances = 1024;
constexpr int kReplayBatches = 200;

enum class Load { kOpen, kClosed, kPoolBatch };

struct Workload {
  std::string name;
  Load load = Load::kOpen;
  double rate_rps = 0.0;  ///< kOpen: Poisson arrival rate
  int outstanding = 0;    ///< kClosed: requests kept in flight
  int batch = 0;          ///< kPoolBatch: structures per EnginePool::run
  enum class Model { kSeqLstm, kTreeLstm, kDagRnn } model = Model::kSeqLstm;
  std::int64_t hidden = 0;
  std::int64_t size = 0;  ///< chain length, or grid side for DAGs
  int distinct = 0;       ///< distinct inputs (oracle runs)
};

Workload find_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "seqlstm-single" || name == "seqlstm-saturate") {
    w.model = Workload::Model::kSeqLstm;
    w.hidden = smoke ? 16 : 256;
    w.size = smoke ? 8 : 100;
    w.distinct = smoke ? 8 : 64;
    w.load = Load::kClosed;
    // One request in flight measures the one-row path without queueing. An
    // open loop at 30-50 rps kept the single dispatcher 40-75% busy, and
    // its queueing turned a +-10% drift in host speed into p50s from 15 to
    // 47 ms.
    w.outstanding = name == "seqlstm-single" ? 1 : 64;
  } else if (name == "treelstm-poisson") {
    w.model = Workload::Model::kTreeLstm;
    w.hidden = smoke ? 16 : 64;
    w.distinct = smoke ? 16 : 256;
    w.load = Load::kOpen;
    w.rate_rps = 2000.0;
  } else if (name == "dagrnn-batch") {
    w.model = Workload::Model::kDagRnn;
    w.hidden = smoke ? 16 : 256;
    w.size = smoke ? 4 : 10;
    w.distinct = smoke ? 8 : 64;
    w.load = Load::kPoolBatch;
    w.batch = 10;
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  return w;
}

models::ModelDef make_model(const Workload& w) {
  switch (w.model) {
    case Workload::Model::kSeqLstm: return models::make_seq_lstm(w.hidden);
    case Workload::Model::kTreeLstm: return models::make_treelstm(w.hidden);
    case Workload::Model::kDagRnn: return models::make_dagrnn(w.hidden);
  }
  return models::make_seq_lstm(w.hidden);
}

runtime::DeviceSpec device_spec() { return runtime::DeviceSpec::v100_gpu(); }

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  Rng r(seed ^ (stream * 0x9e3779b97f4a7c15ull));
  return r.next_u64();
}

double uniform01(Rng& r) {
  return static_cast<double>(r.next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t now_ns() { return support::monotonic_ns(); }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

/// Restarts VmHWM at the current RSS, so peak_rss_mb() sees only what
/// follows. The oracle holds every input's node states at once, more than
/// a served batch does; its freed heap is returned to the system first, so
/// the peak it left behind neither sets the mark nor hides serving memory
/// below it.
void reset_peak_rss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  const bool ok = f != nullptr && std::fputs("5", f) >= 0;
  if (f == nullptr || std::fclose(f) != 0 || !ok)
    throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
}

/// Nearest-rank percentile (the same rule BatchServer::metrics uses).
std::size_t rank_of(std::size_t n, double q) {
  // The epsilon keeps q * n that should be integral (0.99 * 1000) from
  // rounding up a rank.
  const auto r = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::min(n, std::max<std::size_t>(r, 1));
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[rank_of(v.size(), q) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// -- inputs and the oracle ----------------------------------------------------

struct Inputs {
  bool dag = false;
  int distinct = 0;
  /// Instance i is a fresh copy of distinct input i % distinct.
  std::vector<std::unique_ptr<ds::Tree>> trees;
  std::vector<std::unique_ptr<ds::Dag>> dags;
  /// Oracle root states per distinct input (empty in --setup-only runs).
  std::vector<std::vector<std::vector<float>>> expected;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed, std::size_t count) {
  Inputs in;
  in.dag = w.model == Workload::Model::kDagRnn;
  in.distinct = w.distinct;
  for (std::size_t i = 0; i < count; ++i) {
    // Regenerating from the distinct input's own seed yields an identical
    // structure, so copies share that input's oracle answer.
    Rng rng(mix(seed, 1000 + i % static_cast<std::size_t>(w.distinct)));
    switch (w.model) {
      case Workload::Model::kSeqLstm:
        in.trees.push_back(ds::make_chain_tree(w.size, rng));
        break;
      case Workload::Model::kTreeLstm:
        in.trees.push_back(ds::make_sst_like_tree(rng));
        break;
      case Workload::Model::kDagRnn:
        in.dags.push_back(ds::make_grid_dag(w.size, w.size, rng));
        break;
    }
  }
  return in;
}

/// Root-state entries one request of `in` yields: 1 per tree, one per
/// sink node (in node order) per DAG.
std::int64_t roots_of(const Inputs& in, std::size_t i) {
  if (!in.dag) return 1;
  std::int64_t sinks = 0;
  for (std::int64_t v = 0; v < in.dags[i]->num_nodes(); ++v)
    if (in.dags[i]->succs(v).empty()) ++sinks;
  return sinks;
}

void compute_oracle(Inputs& in, const models::ModelDef& def,
                    const models::ModelParams& params) {
  baselines::EagerEngine eager(def, params, device_spec());
  std::vector<std::int64_t> counts;
  runtime::RunResult rr;
  if (in.dag) {
    std::vector<const ds::Dag*> v;
    for (int i = 0; i < in.distinct; ++i) {
      v.push_back(in.dags[static_cast<std::size_t>(i)].get());
      counts.push_back(roots_of(in, static_cast<std::size_t>(i)));
    }
    rr = eager.run(v);
  } else {
    std::vector<const ds::Tree*> v;
    for (int i = 0; i < in.distinct; ++i) {
      v.push_back(in.trees[static_cast<std::size_t>(i)].get());
      counts.push_back(1);
    }
    rr = eager.run(v);
  }
  in.expected = runtime::split_by_request(std::move(rr), counts);
}

bool same_bits(const std::vector<std::vector<float>>& a,
               const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)) !=
            0)
      return false;
  return true;
}

/// 1 when the served roots of instance `i` differ from the oracle's.
int mismatch(const Inputs& in, std::size_t i,
             const std::vector<std::vector<float>>& roots) {
  return same_bits(in.expected[i % static_cast<std::size_t>(in.distinct)],
                   roots)
             ? 0
             : 1;
}

/// Structures of a batch result (instances `insts`, in order) that differ
/// from the oracle.
int batch_mismatches(const Inputs& in, const std::vector<std::size_t>& insts,
                     runtime::RunResult&& rr) {
  std::vector<std::int64_t> counts;
  for (const std::size_t i : insts) counts.push_back(roots_of(in, i));
  std::vector<std::vector<std::vector<float>>> slices;
  try {
    slices = runtime::split_by_request(std::move(rr), counts);
  } catch (const std::exception&) {
    return static_cast<int>(insts.size());
  }
  int bad = 0;
  for (std::size_t k = 0; k < insts.size(); ++k)
    bad += mismatch(in, insts[k], slices[k]);
  return bad;
}

runtime::RunResult pool_run(exec::EnginePool& pool, const Inputs& in,
                            const std::vector<std::size_t>& insts) {
  if (in.dag) {
    std::vector<const ds::Dag*> v;
    for (const std::size_t i : insts) v.push_back(in.dags[i].get());
    return pool.run(v);
  }
  std::vector<const ds::Tree*> v;
  for (const std::size_t i : insts) v.push_back(in.trees[i].get());
  return pool.run(v);
}

std::future<exec::ServedResult> submit(exec::BatchServer& server,
                                       const Inputs& in, std::size_t i) {
  return in.dag ? server.submit(in.dags[i].get())
                : server.submit(in.trees[i].get());
}

linearizer::Linearized linearize(const Inputs& in,
                                 const std::vector<std::size_t>& insts,
                                 const linearizer::LinearizerSpec& spec) {
  if (in.dag) {
    std::vector<const ds::Dag*> v;
    for (const std::size_t i : insts) v.push_back(in.dags[i].get());
    return linearizer::linearize_dags(v, spec);
  }
  std::vector<const ds::Tree*> v;
  for (const std::size_t i : insts) v.push_back(in.trees[i].get());
  return linearizer::linearize_trees(v, spec);
}

// -- the serving stack ----------------------------------------------------------

struct Stack {
  models::ModelDef def;
  models::ModelParams params;
  std::unique_ptr<exec::EnginePool> pool;
  /// Null for kPoolBatch workloads, which call EnginePool::run directly.
  std::unique_ptr<exec::BatchServer> server;
};

/// The cold start setup_s times: model weights, the pool (a plan-cache
/// miss in a fresh process), the server, and one warm-up request per
/// worker, which forces each worker's lazy batched-executor build.
std::unique_ptr<Stack> set_up(const Workload& w, std::uint64_t seed,
                              const Inputs& in) {
  auto st = std::make_unique<Stack>();
  st->def = make_model(w);
  Rng prng(mix(seed, 7));
  st->params = models::init_params(st->def, prng);
  exec::EnginePoolOptions po;
  po.workers = kWorkers;
  st->pool = std::make_unique<exec::EnginePool>(st->def, st->params,
                                                ra::Schedule{}, device_spec(),
                                                po);
  std::vector<std::size_t> warm(kWorkers);
  std::iota(warm.begin(), warm.end(), 0);
  if (w.load == Load::kPoolBatch) {
    (void)pool_run(*st->pool, in, warm);  // one shard per worker
    return st;
  }
  st->server = std::make_unique<exec::BatchServer>(*st->pool);
  std::vector<std::future<exec::ServedResult>> futs;
  for (const std::size_t i : warm) futs.push_back(submit(*st->server, in, i));
  for (auto& f : futs) {
    const exec::ServedResult r = f.get();
    if (r.status != exec::RequestStatus::kOk)
      throw std::runtime_error("warm-up request failed: " + r.error);
  }
  return st;
}

// -- load -----------------------------------------------------------------------

/// One request (or, for kPoolBatch, one EnginePool::run of w.batch
/// structures).
struct Rec {
  std::int64_t due_ns = 0;        ///< scheduled send time (open loop)
  std::int64_t submit_ns = 0;     ///< submit()/run() call start
  std::int64_t submitted_ns = 0;  ///< submit() return
  double e2e_ns = 0.0;            ///< ServedResult::e2e_ns or run() wall
  double queue_ns = 0.0;          ///< ServedResult::queue_ns
  std::int64_t batch_size = 0;    ///< requests coalesced with this one
  int structures = 1;
  int failed = 0;  ///< structures not kOk or differing from the oracle
  bool measured = false;
  std::vector<runtime::ShardRecord> shards;  ///< kPoolBatch traced runs

  std::int64_t done_ns() const {
    return submit_ns + static_cast<std::int64_t>(e2e_ns);
  }
};

struct LoadRun {
  std::vector<Rec> recs;
  /// The measured window: the load thread opens it at start_ns and closes
  /// it at end_ns, the first time it looks at the clock past its length.
  std::int64_t start_ns = -1, end_ns = -1, length_ns = 0;
  /// Process CPU time when the window opened and closed.
  double cpu_open_s = 0.0, cpu_close_s = 0.0;
  exec::ServerHealth health0, health1;
  /// Open loops: the full batch that opens the warm-up (run_open).
  std::int64_t full_batch_size = 0, full_batch_failed = 0;

  void open(std::int64_t now, double window_s) {
    start_ns = now;
    length_ns = static_cast<std::int64_t>(window_s * 1e9);
    cpu_open_s = cpu_seconds();
  }
  bool opened() const { return start_ns >= 0; }
  bool closed() const { return end_ns >= 0; }
  std::int64_t due_close_ns() const { return start_ns + length_ns; }
  /// Closes the window when `now` has passed its length; true once closed.
  bool tick(std::int64_t now) {
    if (opened() && !closed() && now >= due_close_ns()) {
      end_ns = now;
      cpu_close_s = cpu_seconds();
    }
    return closed();
  }
};

void fill_served(Rec& r, const Inputs& in, std::size_t inst,
                 const exec::ServedResult& res) {
  r.e2e_ns = res.e2e_ns;
  r.queue_ns = res.queue_ns;
  r.batch_size = res.batch_size;
  r.failed = res.status == exec::RequestStatus::kOk
                 ? mismatch(in, inst, res.root_states)
                 : 1;
}

/// Open loop: Poisson arrivals, timed from each request's due time. The
/// warm-up and the window each hold exactly round(rate * length) arrivals
/// placed uniformly at random (a Poisson process conditioned on its
/// count), so the offered load is the same in every run.
///
/// The warm-up opens with one full batch, max_batch requests submitted at
/// once. An open loop's batches stay small unless a host stall builds a
/// backlog, so without it the peak RSS would hold a full batch only in
/// runs that happened to stall.
LoadRun run_open(Stack& st, const Inputs& in, const Workload& w,
                 double warm_s, double window_s, std::uint64_t seed) {
  LoadRun run;
  const exec::BatchServerOptions& so = st.server->options();
  const auto full = static_cast<std::size_t>(
      so.max_batch > 0 ? so.max_batch : exec::BatchServer::default_max_batch());
  std::vector<std::future<exec::ServedResult>> burst;
  for (std::size_t i = 0; i < full; ++i)
    burst.push_back(submit(*st.server, in, i % kInstances));
  for (std::size_t i = 0; i < full; ++i) {
    const exec::ServedResult r = burst[i].get();
    run.full_batch_failed += r.status == exec::RequestStatus::kOk
                                 ? mismatch(in, i % kInstances, r.root_states)
                                 : 1;
    run.full_batch_size = std::max(run.full_batch_size, r.batch_size);
  }

  Rng rng(mix(seed, 11));
  std::vector<double> due;
  const auto arrivals = [&](double from, double len) {
    const auto n = static_cast<std::size_t>(std::llround(w.rate_rps * len));
    std::vector<double> t(n);
    for (double& x : t) x = from + len * uniform01(rng);
    std::sort(t.begin(), t.end());
    due.insert(due.end(), t.begin(), t.end());
  };
  arrivals(0.0, warm_s);
  const std::size_t n_warm = due.size();
  arrivals(warm_s, window_s);

  run.recs.resize(due.size());
  std::vector<std::future<exec::ServedResult>> futs(due.size());
  const std::int64_t base = now_ns() + 1'000'000;
  const auto at = [&](double s) {
    return base + static_cast<std::int64_t>(s * 1e9);
  };
  // The window closes on the generator's own clock.
  const auto close_before = [&](std::int64_t t) {
    if (!run.opened() || run.closed() || run.due_close_ns() > t) return;
    std::this_thread::sleep_until(support::to_time_point(run.due_close_ns()));
    run.tick(now_ns());
  };
  for (std::size_t k = 0; k < due.size(); ++k) {
    Rec& r = run.recs[k];
    r.due_ns = at(due[k]);
    r.measured = k >= n_warm;
    if (k == n_warm) {
      std::this_thread::sleep_until(support::to_time_point(at(warm_s)));
      run.health0 = st.server->health();
      run.open(now_ns(), window_s);
    }
    // Instance k % kInstances is free once request k - kInstances is
    // done; check its result now, so finished results are not held.
    if (k >= kInstances) {
      const std::size_t j = k - kInstances;
      fill_served(run.recs[j], in, j % kInstances, futs[j].get());
    }
    close_before(r.due_ns);
    std::this_thread::sleep_until(support::to_time_point(r.due_ns));
    r.submit_ns = now_ns();
    futs[k] = submit(*st.server, in, k % kInstances);
    r.submitted_ns = now_ns();
  }
  close_before(std::numeric_limits<std::int64_t>::max());
  for (std::size_t k = due.size() > kInstances ? due.size() - kInstances : 0;
       k < due.size(); ++k)
    fill_served(run.recs[k], in, k % kInstances, futs[k].get());
  run.health1 = st.server->health();
  return run;
}

/// Closed loop: `w.outstanding` requests in flight; each completion (the
/// oldest first) sends the next. The window opens at the first completion
/// after the warm-up and closes window_s later; a request counts when it
/// completes inside it.
LoadRun run_closed(Stack& st, const Inputs& in, const Workload& w,
                   double warm_s, double window_s) {
  const auto slots = static_cast<std::size_t>(w.outstanding);
  LoadRun run;
  std::vector<std::future<exec::ServedResult>> ring(slots);
  std::vector<std::size_t> ring_rec(slots);
  const auto send = [&](std::size_t slot) {
    const std::size_t k = run.recs.size();
    Rec r;
    r.submit_ns = now_ns();
    r.due_ns = r.submit_ns;
    ring[slot] = submit(*st.server, in, k % kInstances);
    r.submitted_ns = now_ns();
    ring_rec[slot] = k;
    run.recs.push_back(std::move(r));
  };
  const auto warm_end = now_ns() + static_cast<std::int64_t>(warm_s * 1e9);
  for (std::size_t s = 0; s < slots; ++s) send(s);
  for (std::size_t k = 0;; ++k) {
    const std::size_t slot = k % slots;
    if (!ring[slot].valid()) break;  // drained after the window closed
    const exec::ServedResult res = ring[slot].get();
    const std::size_t idx = ring_rec[slot];
    fill_served(run.recs[idx], in, idx % kInstances, res);
    const std::int64_t now = now_ns();
    if (!run.opened() && now >= warm_end) {
      run.health0 = st.server->health();
      run.open(now, window_s);
    } else if (run.opened() && !run.closed() && run.tick(now)) {
      run.health1 = st.server->health();
    }
    if (!run.closed()) send(slot);
  }
  for (Rec& r : run.recs)
    r.measured = r.done_ns() > run.start_ns && r.done_ns() <= run.end_ns;
  return run;
}

/// One client calling EnginePool::run on batches of w.batch structures,
/// back to back; each batch is one latency sample.
LoadRun run_pool_batches(Stack& st, const Inputs& in, const Workload& w,
                         double warm_s, double window_s, bool keep_shards) {
  LoadRun run;
  const auto warm_end = now_ns() + static_cast<std::int64_t>(warm_s * 1e9);
  std::size_t cursor = 0;
  std::vector<std::size_t> insts(static_cast<std::size_t>(w.batch));
  while (!run.closed()) {
    for (std::size_t& i : insts) i = cursor++ % kInstances;
    Rec r;
    r.structures = w.batch;
    r.submit_ns = r.due_ns = r.submitted_ns = now_ns();
    runtime::RunResult rr = pool_run(*st.pool, in, insts);
    const std::int64_t now = now_ns();
    r.e2e_ns = static_cast<double>(now - r.submit_ns);
    r.batch_size = w.batch;
    if (keep_shards) r.shards = rr.shards;
    r.failed = batch_mismatches(in, insts, std::move(rr));
    r.measured = run.opened();
    run.recs.push_back(std::move(r));
    if (!run.opened() && now >= warm_end)
      run.open(now, window_s);
    else if (run.opened())
      run.tick(now);
  }
  return run;
}

// -- metrics --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::int64_t attempted = 0;  ///< measured structures
  std::int64_t failed = 0;     ///< measured structures failed or wrong
  std::int64_t failed_any = 0;  ///< including warm-up and replay
  std::int64_t samples = 0;     ///< latency samples
  std::int64_t beyond_p99 = 0;  ///< samples above the p99 rank
  /// Gated: median latency, throughput, peak RSS.
  std::vector<Metric> e2e;
  /// Ungated: tail latency and CPU time per request.
  std::vector<Metric> window;
};

/// The end-to-end metrics, over the whole measured window. The host's
/// speed drifts over seconds to minutes, so only statistics that pool the
/// whole window are gated: the median latency and the completion rate.
/// The p99 and the CPU time per request swing with the slowest stretches
/// of a run and are reported ungated.
Outcome end_to_end(const LoadRun& run) {
  if (!run.closed())
    throw std::runtime_error("the measured window never closed");
  Outcome o;
  o.failed_any = run.full_batch_failed;
  std::vector<double> lat_ms;
  std::int64_t ok_in_window = 0;
  for (const Rec& r : run.recs) {
    o.failed_any += r.failed;
    if (!r.measured) continue;
    o.attempted += r.structures;
    o.failed += r.failed;
    if (r.failed == 0)
      lat_ms.push_back(static_cast<double>(r.done_ns() - r.due_ns) * 1e-6);
    if (r.done_ns() > run.start_ns && r.done_ns() <= run.end_ns)
      ok_in_window += r.structures - r.failed;
  }
  const double window_s = static_cast<double>(run.end_ns - run.start_ns) * 1e-9;
  o.samples = static_cast<std::int64_t>(lat_ms.size());
  o.beyond_p99 = o.samples - static_cast<std::int64_t>(
                                 rank_of(lat_ms.size(), 0.99));
  o.e2e = {
      {"latency_p50_ms", median(lat_ms), "ms"},
      {"throughput_rps", static_cast<double>(ok_in_window) / window_s, "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  o.window = {
      {"window.latency_p99_ms", percentile(lat_ms, 0.99), "ms"},
      {"window.cpu_ms_per_req",
       (run.cpu_close_s - run.cpu_open_s) * 1e3 /
           static_cast<double>(std::max<std::int64_t>(ok_in_window, 1)),
       "ms"},
  };
  return o;
}

/// Per-layer numbers of the load itself: generator lag and the server's
/// view of each request (ServedResult), all over the measured window.
std::vector<Metric> load_layers(const LoadRun& run, bool served) {
  std::vector<double> lag_ms, submit_us, queue_ms, service_ms;
  double sent = 0, batches = 0;
  for (const Rec& r : run.recs) {
    if (!r.measured) continue;
    sent += r.structures;
    lag_ms.push_back(static_cast<double>(r.submit_ns - r.due_ns) * 1e-6);
    if (!served) continue;
    submit_us.push_back(static_cast<double>(r.submitted_ns - r.submit_ns) *
                        1e-3);
    queue_ms.push_back(r.queue_ns * 1e-6);
    service_ms.push_back((r.e2e_ns - r.queue_ns) * 1e-6);
    // A batch of b requests contributes b requests each carrying 1/b.
    if (r.batch_size > 0) batches += 1.0 / static_cast<double>(r.batch_size);
  }
  const auto delta = [&](std::int64_t exec::ServerHealth::*field) {
    return static_cast<double>(run.health1.*field - run.health0.*field);
  };
  return {
      {"loadgen.lag_p99_ms", percentile(lag_ms, 0.99), "ms"},
      {"loadgen.sent", sent, "count"},
      {"batch_server.submit_us_p50", median(submit_us), "us"},
      {"batch_server.queue_ms_p50", median(queue_ms), "ms"},
      {"batch_server.queue_ms_p99", percentile(queue_ms, 0.99), "ms"},
      {"batch_server.service_ms_p50", median(service_ms), "ms"},
      {"batch_server.batch_size_mean",
       batches > 0 ? static_cast<double>(queue_ms.size()) / batches : 0.0,
       "count"},
      {"batch_server.batches", std::round(batches), "count"},
      {"batch_server.bisect_reruns", delta(&exec::ServerHealth::bisect_reruns),
       "count"},
      {"batch_server.dispatch_retries",
       delta(&exec::ServerHealth::dispatch_retries), "count"},
  };
}

// -- tracing --------------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;  ///< index of the enclosing span, -1 for a root
  std::int64_t id;      ///< request or replay-batch id
  int lane;             ///< trace-viewer row
};

struct Trace {
  std::vector<Span> spans;
  std::int64_t add(const char* name, std::int64_t start, std::int64_t end,
                   std::int64_t parent, std::int64_t id, int lane) {
    spans.push_back({name, start, end, parent, id, lane});
    return static_cast<std::int64_t>(spans.size()) - 1;
  }
};

void trace_load(Trace& t, const LoadRun& run, bool served) {
  std::int64_t id = 0;
  for (const Rec& r : run.recs) {
    if (!r.measured) continue;
    const int lane = 1 + static_cast<int>(id % 16);
    const std::int64_t req =
        t.add("request", r.due_ns, r.done_ns(), -1, id, lane);
    if (r.submit_ns > r.due_ns)
      t.add("loadgen.lag", r.due_ns, r.submit_ns, req, id, lane);
    if (served) {
      const auto admit = r.submit_ns + static_cast<std::int64_t>(r.queue_ns);
      t.add("batch_server.submit", r.submit_ns, r.submitted_ns, req, id, lane);
      t.add("batch_server.queue", r.submit_ns, admit, req, id, lane);
      t.add("batch_server.service", admit, r.done_ns(), req, id, lane);
    }
    // ShardRecord carries durations only: shard spans start with the call.
    for (const runtime::ShardRecord& s : r.shards)
      t.add("engine_pool.shard", r.submit_ns,
            r.submit_ns + static_cast<std::int64_t>(s.run_ns), req, id,
            100 + s.worker);
    ++id;
  }
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals (clipped to it).
std::map<std::string, std::pair<double, double>> self_times(const Trace& t) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      t.spans.size());
  for (const Span& s : t.spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
  std::map<std::string, std::pair<double, double>> out;  // total, self
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const Span& p = t.spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur = p.start_ns;
    for (const auto& [a, b] : iv) {
      const std::int64_t lo = std::max(a, cur), hi = std::min(b, p.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cur = hi;
      }
    }
    auto& acc = out[p.name];
    acc.first += static_cast<double>(p.end_ns - p.start_ns);
    acc.second += static_cast<double>(p.end_ns - p.start_ns - covered);
  }
  return out;
}

/// Chrome trace-event JSON (viewable in Perfetto / chrome://tracing).
void write_trace(const Trace& t, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::int64_t origin = 0;
  if (!t.spans.empty()) {
    origin = t.spans.front().start_ns;
    for (const Span& s : t.spans) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const Span& s = t.spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"servebench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"id\":%lld,\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.lane,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

// -- replay ---------------------------------------------------------------------

/// Re-runs batches shaped like the served ones (sizes drawn from the
/// window's batch-size distribution) twice: through EnginePool::run, and
/// with the same shards run concurrently, one thread and one 1-thread
/// CortexEngine per shard as the pool's workers run them, each split as
/// linearize -> run_linearized to expose the layers the pool call hides.
struct Replay {
  std::vector<double> run_ms, dispatch_us, imbalance, slowest_ms;
  std::vector<double> lin_us, rl_us, numerics_us, accounting_us;
  double lin_ns = 0, nodes = 0, wavefronts = 0, gemm_calls = 0, panels = 0;
  double flops = 0, numerics_ns = 0, calls = 0;
  std::int64_t failed = 0;
};

Replay replay(Stack& st, const Inputs& in, const Workload& w,
              const LoadRun& run, double budget_s, std::uint64_t seed,
              Trace& trace) {
  // Batch-size distribution of the window, by batch count.
  std::map<std::int64_t, double> weight;
  for (const Rec& r : run.recs)
    if (r.measured && r.batch_size > 0)
      weight[r.batch_size] += w.load == Load::kPoolBatch
                                  ? 1.0
                                  : 1.0 / static_cast<double>(r.batch_size);
  if (weight.empty()) weight[1] = 1.0;
  double total = 0;
  for (const auto& [b, x] : weight) total += x;

  std::vector<std::unique_ptr<exec::CortexEngine>> engines;
  for (int i = 0; i < st.pool->num_workers(); ++i) {
    engines.push_back(std::make_unique<exec::CortexEngine>(
        st.def, st.params, ra::Schedule{}, device_spec()));
    engines.back()->set_num_threads(1);
  }
  linearizer::LinearizerSpec lspec = engines[0]->lowered()
                                         ? engines[0]->lowered()->lin_spec
                                         : linearizer::LinearizerSpec{};
  if (in.dag) lspec.kind = linearizer::StructureKind::kDag;

  struct ShardRun {
    std::vector<std::size_t> insts;
    std::int64_t a = 0, m = 0, e = 0;  ///< linearize start / end, run end
    std::int64_t nodes = 0, wavefronts = 0;
    runtime::RunResult res;
  };

  Rng rng(mix(seed, 13));
  Replay out;
  std::size_t cursor = 0;
  const std::int64_t t_end =
      now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  for (int b = 0; b < kReplayBatches && now_ns() < t_end; ++b) {
    double pick = uniform01(rng) * total;
    std::int64_t size = weight.rbegin()->first;
    for (const auto& [k, x] : weight) {
      if (pick < x) {
        size = k;
        break;
      }
      pick -= x;
    }
    std::vector<std::size_t> insts(static_cast<std::size_t>(size));
    for (std::size_t& i : insts) i = cursor++ % kInstances;

    const std::int64_t t0 = now_ns();
    runtime::RunResult rr = pool_run(*st.pool, in, insts);
    const std::int64_t t1 = now_ns();
    const std::vector<runtime::ShardRecord> shards = rr.shards;
    out.failed += batch_mismatches(in, insts, std::move(rr));

    const std::int64_t root = trace.add("replay.batch", t0, t0, -1, b, 200);
    const std::int64_t pool_span =
        trace.add("engine_pool.run", t0, t1, root, b, 200);
    double slow = 0, sum = 0;
    for (const runtime::ShardRecord& sh : shards) {
      trace.add("engine_pool.shard", t0,
                t0 + static_cast<std::int64_t>(sh.run_ns), pool_span, b,
                210 + sh.worker);
      sum += sh.run_ns;
      slow = std::max(slow, sh.run_ns);
    }
    out.run_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    out.dispatch_us.push_back((static_cast<double>(t1 - t0) - slow) * 1e-3);
    out.imbalance.push_back(
        sum > 0 ? slow / (sum / static_cast<double>(shards.size())) : 1.0);

    std::vector<ShardRun> runs(shards.size());
    std::vector<std::future<void>> done;
    for (std::size_t k = 0; k < shards.size(); ++k) {
      const auto first = insts.begin() + shards[k].batch_begin;
      runs[k].insts.assign(first, first + shards[k].batch_size);
      done.push_back(std::async(std::launch::async, [&, k] {
        ShardRun& sr = runs[k];
        sr.a = now_ns();
        const linearizer::Linearized lin = linearize(in, sr.insts, lspec);
        sr.m = now_ns();
        sr.res = engines[k]->run_linearized(lin, static_cast<double>(sr.m - sr.a));
        sr.e = now_ns();
        sr.nodes = lin.num_nodes;
        sr.wavefronts = lin.num_batches();
      }));
    }
    for (auto& f : done) f.get();
    double slowest_ns = 0;
    for (std::size_t k = 0; k < runs.size(); ++k) {
      ShardRun& sr = runs[k];
      const runtime::Profiler& p = sr.res.profiler;
      const int lane = 220 + static_cast<int>(k);
      trace.add("linearizer.linearize", sr.a, sr.m, root, b, lane);
      const std::int64_t rl =
          trace.add("engine.run_linearized", sr.m, sr.e, root, b, lane);
      trace.add("models.numerics", sr.m,
                sr.m + static_cast<std::int64_t>(p.numerics_host_ns), rl, b,
                lane);
      out.lin_us.push_back(static_cast<double>(sr.m - sr.a) * 1e-3);
      out.rl_us.push_back(static_cast<double>(sr.e - sr.m) * 1e-3);
      out.numerics_us.push_back(p.numerics_host_ns * 1e-3);
      out.accounting_us.push_back(
          (static_cast<double>(sr.e - sr.m) - p.numerics_host_ns) * 1e-3);
      out.lin_ns += static_cast<double>(sr.m - sr.a);
      out.nodes += static_cast<double>(sr.nodes);
      out.wavefronts += static_cast<double>(sr.wavefronts);
      out.gemm_calls += static_cast<double>(p.batched_gemm_calls);
      out.panels += static_cast<double>(p.batched_panels);
      out.flops += static_cast<double>(p.device_flops);
      out.numerics_ns += p.numerics_host_ns;
      out.calls += 1;
      slowest_ns = std::max(slowest_ns, static_cast<double>(sr.e - sr.a));
      out.failed += batch_mismatches(in, sr.insts, std::move(sr.res));
    }
    out.slowest_ms.push_back(slowest_ns * 1e-6);
    trace.spans[static_cast<std::size_t>(root)].end_ns = now_ns();
  }
  return out;
}

std::vector<Metric> replay_layers(const Replay& r, double pool_retries) {
  const auto per_call = [&](double x) { return r.calls > 0 ? x / r.calls : 0; };
  return {
      {"engine_pool.run_ms_p50", median(r.run_ms), "ms"},
      {"engine_pool.dispatch_us_p50", median(r.dispatch_us), "us"},
      {"engine_pool.slowest_shard_ms_p50", median(r.slowest_ms), "ms"},
      {"engine_pool.shard_imbalance", median(r.imbalance), "ratio"},
      {"engine_pool.transient_retries", pool_retries, "count"},
      {"engine_pool.replay_batches", static_cast<double>(r.run_ms.size()),
       "count"},
      {"linearizer.us_per_batch_p50", median(r.lin_us), "us"},
      {"linearizer.ns_per_node", r.nodes > 0 ? r.lin_ns / r.nodes : 0, "ns"},
      {"linearizer.wavefronts_per_batch", per_call(r.wavefronts), "count"},
      {"engine.run_linearized_us_p50", median(r.rl_us), "us"},
      {"engine.accounting_us_p50", median(r.accounting_us), "us"},
      {"models.numerics_us_p50", median(r.numerics_us), "us"},
      {"models.gemm_calls_per_batch", per_call(r.gemm_calls), "count"},
      {"models.rows_per_panel", r.panels > 0 ? r.nodes / r.panels : 0,
       "count"},
      {"models.gflops", r.numerics_ns > 0 ? r.flops / r.numerics_ns : 0,
       "GFLOP/s"},
  };
}

/// Plan-cache layer: hit ratio of this process's lookups so far, then a
/// cold compile (after clear()) and warm constructions, timed.
std::vector<Metric> plan_cache_layers(const Stack& st) {
  exec::PlanCache& cache = exec::PlanCache::instance();
  const exec::PlanCacheStats stats = cache.stats();
  const auto construct_ns = [&] {
    const std::int64_t t0 = now_ns();
    exec::CortexEngine e(st.def, st.params, ra::Schedule{}, device_spec());
    return static_cast<double>(now_ns() - t0);
  };
  std::vector<double> cold, warm;
  for (int i = 0; i < 3; ++i) {
    cache.clear();
    cold.push_back(construct_ns() * 1e-6);
  }
  for (int i = 0; i < 21; ++i) warm.push_back(construct_ns() * 1e-3);
  return {
      {"plan_cache.cold_compile_ms", median(cold), "ms"},
      {"plan_cache.warm_ctor_us", median(warm), "us"},
      {"plan_cache.hit_ratio",
       stats.lookups > 0 ? static_cast<double>(stats.hits) /
                               static_cast<double>(stats.lookups)
                         : 0.0,
       "ratio"},
  };
}

// -- output ---------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    out += (i ? "," : "") + quoted(ms[i].name) + ":{\"value\":" +
           num(ms[i].value) + ",\"unit\":" + quoted(ms[i].unit) + "}";
  return out + "}";
}

/// The effective configuration, read back from the constructed objects.
std::string config_json(const Stack& st, const Workload& w,
                        std::uint64_t seed, double seconds, bool smoke) {
  std::ostringstream o;
  o << "{\"build_type\":" << quoted(SERVEBENCH_BUILD_TYPE)
    << ",\"compiler\":" << quoted(__VERSION__)
    << ",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"seed\":" << seed << ",\"seconds\":" << num(seconds)
    << ",\"smoke\":" << (smoke ? "true" : "false")
    << ",\"model\":" << quoted(st.def.name) << ",\"hidden\":" << w.hidden
    << ",\"distinct_inputs\":" << w.distinct
    << ",\"pool\":{\"workers\":" << st.pool->num_workers()
    << ",\"default_num_workers\":" << exec::EnginePool::default_num_workers()
    << ",\"threads_per_worker\":" << st.pool->engine(0).num_threads() << "}";
  if (st.server) {
    const exec::BatchServerOptions& so = st.server->options();
    o << ",\"server\":{\"max_batch\":" << so.max_batch
      << ",\"max_wait_us\":" << so.max_wait_us
      << ",\"default_max_batch\":" << exec::BatchServer::default_max_batch()
      << ",\"default_max_wait_us\":"
      << exec::BatchServer::default_max_wait_us()
      << ",\"queue_capacity\":" << so.queue_capacity << ",\"on_full\":"
      << quoted(so.on_full == exec::BatchServerOptions::OnFull::kBlock
                    ? "block"
                    : "reject")
      << ",\"validate_on_submit\":"
      << (so.validate_on_submit ? "true" : "false")
      << ",\"dispatchers\":" << so.dispatchers
      << ",\"dispatch_retries\":" << so.dispatch_retries << "}";
  }
  const exec::PlanCache& cache = exec::PlanCache::instance();
  o << ",\"plan_cache\":{\"enabled\":" << (cache.enabled() ? "true" : "false")
    << ",\"capacity\":" << cache.capacity() << "}}";
  return o.str();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  std::string trace_out;  ///< non-empty: traced run
  bool setup_only = false;
  bool smoke = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace-out") a.trace_out = value();
    else if (k == "--setup-only") a.setup_only = true;
    else if (k == "--smoke") a.smoke = true;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::runtime_error("--workload is required");
  if (!(a.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

int setup_only(const Args& a) {
  const Workload w = find_workload(a.workload, a.smoke);
  const Inputs in = make_inputs(w, a.seed, kWorkers);
  const std::int64_t t0 = now_ns();
  const std::unique_ptr<Stack> st = set_up(w, a.seed, in);
  const double s = static_cast<double>(now_ns() - t0) * 1e-9;
  std::printf("{\"setup_s\":%s}\n", num(s).c_str());
  return 0;
}

int run_workload(const Args& a) {
  const Workload w = find_workload(a.workload, a.smoke);
  const bool traced = !a.trace_out.empty();
  Inputs in = make_inputs(w, a.seed, kInstances);
  {
    // The oracle runs before the server exists, on its own weights copy
    // drawn from the same seed stream set_up uses.
    const models::ModelDef def = make_model(w);
    Rng prng(mix(a.seed, 7));
    const models::ModelParams params = models::init_params(def, prng);
    compute_oracle(in, def, params);
  }
  const std::unique_ptr<Stack> st = set_up(w, a.seed, in);
  reset_peak_rss();

  // A traced run splits its window: half load, half replay.
  const double warm_s = a.smoke ? 0.2 : 2.0;
  const double load_s = traced ? a.seconds / 2 : a.seconds;
  const exec::PoolStats pool0 = st->pool->stats();
  LoadRun run;
  switch (w.load) {
    case Load::kOpen: run = run_open(*st, in, w, warm_s, load_s, a.seed); break;
    case Load::kClosed: run = run_closed(*st, in, w, warm_s, load_s); break;
    case Load::kPoolBatch:
      run = run_pool_batches(*st, in, w, warm_s, load_s, traced);
      break;
  }
  Outcome o = end_to_end(run);

  std::vector<Metric> metrics = o.e2e;
  if (traced) {
    Trace trace;
    trace_load(trace, run, st->server != nullptr);
    const Replay r = replay(*st, in, w, run, a.seconds - load_s, a.seed, trace);
    o.failed_any += r.failed;
    const exec::PoolStats pool1 = st->pool->stats();
    metrics = o.window;
    for (Metric& m : load_layers(run, st->server != nullptr))
      metrics.push_back(std::move(m));
    for (Metric& m : replay_layers(
             r, static_cast<double>(pool1.transient_retries -
                                    pool0.transient_retries)))
      metrics.push_back(std::move(m));
    for (Metric& m : plan_cache_layers(*st)) metrics.push_back(std::move(m));
    write_trace(trace, a.trace_out);

    std::fprintf(stderr, "%-24s %12s %12s\n", "span", "total ms", "self ms");
    for (const auto& [name, ts] : self_times(trace))
      std::fprintf(stderr, "%-24s %12.1f %12.1f\n", name.c_str(),
                   ts.first * 1e-6, ts.second * 1e-6);
  }

  const bool correct = o.failed_any == 0;
  const double error_frac =
      o.attempted > 0 ? static_cast<double>(o.failed) /
                            static_cast<double>(o.attempted)
                      : 1.0;
  std::ostringstream diag;
  diag << "{\"error_frac\":" << num(error_frac)
       << ",\"end_to_end\":" << metrics_json(o.e2e)
       << ",\"window\":" << metrics_json(o.window)
       << ",\"latency_samples\":" << o.samples
       << ",\"beyond_p99\":" << o.beyond_p99
       << ",\"full_batch_size\":" << run.full_batch_size << "}";
  std::printf(
      "{\"workload\":%s,\"traced\":%s,\"correct\":%s,\"attempted\":%lld,"
      "\"failed\":%lld,\"failed_any\":%lld,\"metrics\":%s,"
      "\"diagnostics\":%s,\"config\":%s}\n",
      quoted(w.name).c_str(), traced ? "true" : "false",
      correct ? "true" : "false", static_cast<long long>(o.attempted),
      static_cast<long long>(o.failed), static_cast<long long>(o.failed_any),
      metrics_json(metrics).c_str(), diag.str().c_str(),
      config_json(*st, w, a.seed, a.seconds, a.smoke).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    return a.setup_only ? setup_only(a) : run_workload(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
