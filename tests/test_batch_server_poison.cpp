// BatchServer failure isolation under fire: K concurrent clients, one of
// them submitting malformed structures, co-batched with everyone else's
// healthy requests through one server. The poisoned requests must fail
// individually (kError) while every healthy request completes with root
// states bit-identical to a direct EnginePool::run — on both isolation
// paths: submit-time validation (validate_on_submit) and the bisection
// re-run fallback (validate_on_submit = false, where the poison reaches a
// coalesced batch and EnginePool::run fails it wholesale). Runs in CI
// under ASan/UBSan and TSan via the `serving` ctest label. Assertions run
// on the main thread after join: gtest failure recording is not
// thread-safe.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/batch_server.hpp"
#include "models/model_zoo.hpp"

namespace cortex::exec {
namespace {

constexpr int kClients = 6;  // client K-1 is the poisoner
constexpr std::int64_t kPerClient = 5;

runtime::DeviceSpec gpu() { return runtime::DeviceSpec::v100_gpu(); }

/// A structurally invalid tree: one node reachable twice makes it a DAG,
/// which Tree::validate() — and therefore linearize_trees — rejects.
std::unique_ptr<ds::Tree> malformed_tree() {
  auto t = std::make_unique<ds::Tree>();
  ds::TreeNode* leaf = t->make_leaf(7);
  t->set_root(t->make_internal(leaf, leaf));
  return t;
}

std::vector<std::unique_ptr<ds::Tree>> workload(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<ds::Tree>> trees;
  for (std::int64_t i = 0; i < kPerClient; ++i)
    trees.push_back(ds::make_random_parse_tree(1 + rng.next_below(7), rng));
  return trees;
}

/// K clients hammer one server; client kClients-1 submits only malformed
/// trees. Healthy clients must see bit-identical kOk results; the
/// poisoner must see kError on every request. Exercised with and without
/// submit-time validation (the latter forces the bisection path).
void run_poison_battery(bool validate_on_submit) {
  const models::ModelDef def = models::make_treelstm_embed(16);
  Rng prng(51);
  const models::ModelParams params = models::init_params(def, prng);
  EnginePool pool(def, params, ra::Schedule{}, gpu(),
                  EnginePoolOptions{3});

  // Healthy clients' expected outputs, from a direct pool run over
  // identically-seeded structures (the pool is bit-identical to a single
  // engine; the server must be bit-identical to the pool).
  std::vector<std::vector<std::vector<float>>> expected(kClients - 1);
  for (int t = 0; t < kClients - 1; ++t) {
    const auto trees = workload(900 + static_cast<std::uint64_t>(t));
    expected[static_cast<std::size_t>(t)] =
        pool.run(baselines::raw(trees)).root_states;
  }

  BatchServerOptions opts;
  opts.max_batch = 8;
  opts.max_wait_us = 2000;
  opts.validate_on_submit = validate_on_submit;
  BatchServer server(pool, opts);

  std::vector<std::string> failure(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      const bool poisoner = t == kClients - 1;
      auto& fail = failure[static_cast<std::size_t>(t)];
      // Thread-local structures: one instance must never be in flight
      // twice (submit-time validate() and the linearizer share the same
      // per-node scratch slot).
      std::vector<std::unique_ptr<ds::Tree>> trees;
      if (poisoner) {
        for (std::int64_t i = 0; i < kPerClient; ++i)
          trees.push_back(malformed_tree());
      } else {
        trees = workload(900 + static_cast<std::uint64_t>(t));
      }
      std::vector<std::future<ServedResult>> futs;
      for (const auto& tree : trees) futs.push_back(server.submit(tree.get()));
      for (std::size_t i = 0; i < futs.size(); ++i) {
        ServedResult r = futs[i].get();
        if (poisoner) {
          if (r.status != RequestStatus::kError) {
            fail = "poison request " + std::to_string(i) +
                   " did not fail: " + to_string(r.status);
            return;
          }
          if (r.error.empty()) {
            fail = "poison request " + std::to_string(i) + " lost its error";
            return;
          }
        } else {
          if (r.status != RequestStatus::kOk) {
            fail = "healthy request " + std::to_string(i) + " failed: " +
                   to_string(r.status) + " " + r.error;
            return;
          }
          if (r.root_states.size() != 1 ||
              r.root_states[0] != expected[static_cast<std::size_t>(t)][i]) {
            fail = "healthy request " + std::to_string(i) +
                   ": states diverge";
            return;
          }
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  for (int t = 0; t < kClients; ++t)
    EXPECT_EQ(failure[static_cast<std::size_t>(t)], "") << "client " << t;

  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.completed_ok,
            static_cast<std::int64_t>(kClients - 1) * kPerClient);
  EXPECT_EQ(m.failed, kPerClient);
  if (validate_on_submit) {
    // Poison never reaches a batch, so no bisection was needed.
    EXPECT_EQ(m.bisect_reruns, 0);
    EXPECT_EQ(m.submitted,
              static_cast<std::int64_t>(kClients - 1) * kPerClient);
  } else {
    EXPECT_EQ(m.submitted,
              static_cast<std::int64_t>(kClients) * kPerClient);
  }

  // The server keeps serving after the poison storm.
  const auto after = workload(990);
  const auto after_expected = pool.run(baselines::raw(after)).root_states;
  std::vector<std::future<ServedResult>> futs;
  for (const auto& tree : after) futs.push_back(server.submit(tree.get()));
  std::vector<std::vector<float>> got;
  for (auto& f : futs) {
    ServedResult r = f.get();
    ASSERT_EQ(r.status, RequestStatus::kOk);
    ASSERT_EQ(r.root_states.size(), 1u);
    got.push_back(std::move(r.root_states[0]));
  }
  EXPECT_EQ(got, after_expected);
}

TEST(BatchServerPoison, ValidationIsolatesPoisonAtSubmit) {
  run_poison_battery(/*validate_on_submit=*/true);
}

TEST(BatchServerPoison, BisectionIsolatesPoisonInsideCoalescedBatches) {
  run_poison_battery(/*validate_on_submit=*/false);
}

TEST(BatchServerPoison, DeterministicMiddlePoisonBisectsToTheCulprit) {
  // No concurrency, no validation: seven healthy requests plus one
  // malformed in the middle, all queued before the dispatcher starts, so
  // they provably coalesce into ONE batch that the pool fails wholesale.
  // Bisection must then fail exactly the culprit and serve the rest.
  const models::ModelDef def = models::make_treegru_embed(16);
  Rng prng(52);
  const models::ModelParams params = models::init_params(def, prng);
  EnginePool pool(def, params, ra::Schedule{}, gpu(),
                  EnginePoolOptions{2});

  std::vector<std::unique_ptr<ds::Tree>> trees = workload(77);
  {
    auto more = workload(78);
    for (auto& t : more) trees.push_back(std::move(t));
  }
  trees.resize(7);
  const auto expected = pool.run(baselines::raw(trees)).root_states;
  auto poison = malformed_tree();
  trees.insert(trees.begin() + 3, std::move(poison));

  BatchServerOptions opts;
  opts.max_batch = 8;
  opts.max_wait_us = 0;
  opts.validate_on_submit = false;
  opts.autostart = false;
  BatchServer server(pool, opts);
  std::vector<std::future<ServedResult>> futs;
  for (const auto& t : trees) futs.push_back(server.submit(t.get()));
  server.start();

  std::size_t healthy = 0;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    ServedResult r = futs[i].get();
    if (i == 3) {
      EXPECT_EQ(r.status, RequestStatus::kError);
      EXPECT_NE(r.error, "");
    } else {
      ASSERT_EQ(r.status, RequestStatus::kOk) << "request " << i;
      ASSERT_EQ(r.root_states.size(), 1u);
      EXPECT_EQ(r.root_states[0], expected[healthy]) << "request " << i;
      // Everyone reports the coalesced batch they rode in, pre-bisection.
      EXPECT_EQ(r.batch_size, 8);
      ++healthy;
    }
  }
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.batches, 1);
  EXPECT_EQ(m.completed_ok, 7);
  EXPECT_EQ(m.failed, 1);
  // log2(8) halvings to isolate one poisoned slot.
  EXPECT_GE(m.bisect_reruns, 1);
  EXPECT_LE(m.bisect_reruns, 7);
}

}  // namespace
}  // namespace cortex::exec
