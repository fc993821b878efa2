#include "exec/ilir_runner.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "exec/jit.hpp"
#include "exec/memory_plan.hpp"
#include "ilir/codegen_c.hpp"
#include "runtime/profiler.hpp"

namespace cortex::exec {

const Tensor& IlirRun::at(const std::string& name) const {
  auto it = buffers.find(name);
  CORTEX_CHECK(it != buffers.end()) << "no buffer '" << name << "' in run";
  return it->second;
}

IlirRun run_ilir(const ilir::Program& program,
                 const linearizer::Linearized& lin,
                 const models::ModelParams& params,
                 const IlirRunOptions& opts) {
  std::map<std::string, std::int64_t> scalars;
  scalars["N"] = lin.num_nodes;
  scalars["num_leaves"] = lin.num_leaves;
  scalars["first_leaf_id"] = lin.first_leaf_id;
  scalars["num_batches"] = lin.num_batches();
  scalars["num_internal_batches"] = lin.num_batches() - 1;
  std::int64_t max_batch = 0;
  for (std::int32_t len : lin.batch_length)
    max_batch = std::max<std::int64_t>(max_batch, len);
  scalars["max_batch_size"] = max_batch;

  IlirRun run;
  ilir::Evaluator ev(program, lin);
  ev.bind_structure();

  // Storage strategy: one zero-filled arena with planner-assigned slot
  // offsets, unless CORTEX_MEMPLAN=0 asks for the per-buffer allocator.
  const MemoryPlan* plan = nullptr;
  MemoryPlan local_plan;
  if (memplan_enabled()) {
    if (opts.plan != nullptr) {
      plan = opts.plan;
    } else {
      local_plan = plan_memory(program);
      plan = &local_plan;
    }
  }
  ResolvedArena layout;
  std::shared_ptr<float[]> arena;
  if (plan != nullptr) {
    layout = resolve_arena(*plan, scalars);
    const std::int64_t elems = layout.arena_bytes / 4;
    // Value-initialized: the single zero-fill every zero_init buffer
    // relies on. Per-call allocation keeps concurrent runs independent.
    arena = std::shared_ptr<float[]>(
        new float[static_cast<std::size_t>(std::max<std::int64_t>(elems, 1))]());
    run.arena_bytes = layout.arena_bytes;
    run.sum_buffer_bytes = layout.sum_buffer_bytes;
    run.buffers_reused = plan->buffers_reused;
  }

  for (const ilir::Buffer& b : program.buffers) {
    // Integer buffers are linearizer arrays (exec_order, batch_begin,
    // batch_length): bind_structure() already bound them from `lin`;
    // allocating a float tensor here would shadow that binding.
    if (b.dtype == ra::DType::kInt) continue;
    auto pit = params.tensors.find(b.name);
    if (pit != params.tensors.end()) {
      // Model parameter: bind the user's tensor (const in spirit; the
      // evaluator never stores to input buffers of a lowered model).
      ev.bind(b.name,
              ilir::Binding::tensor(const_cast<Tensor&>(pit->second)));
      continue;
    }
    std::vector<std::int64_t> dims;
    dims.reserve(b.shape.size());
    for (const ra::Expr& e : b.shape) dims.push_back(eval_extent(e, scalars));
    Shape shape(dims);
    const BufferPlanEntry* entry =
        plan != nullptr ? plan->find(b.name) : nullptr;
    Tensor t;
    if (entry != nullptr) {
      const std::int64_t offset =
          layout.slot_offsets[static_cast<std::size_t>(entry->slot)];
      t = Tensor::view_into(std::move(shape), arena, offset / 4);
    } else {
      // No plan entry: unplanned buffer (never written — an externally
      // shaped placeholder with no parameter bound) or planner off.
      t = Tensor::zeros(std::move(shape));
      const std::int64_t bytes = t.numel() * 4;
      run.arena_bytes += bytes;  // dedicated storage counts toward the
      run.sum_buffer_bytes += bytes;  // footprint either way
    }
    auto [it, inserted] = run.buffers.emplace(b.name, std::move(t));
    CORTEX_CHECK(inserted) << "duplicate buffer " << b.name;
    ev.bind(b.name, ilir::Binding::tensor(it->second));
  }

  // Execution: the supplied kernel over exactly the storage bound above,
  // else the interpreter. A plan-built kernel bakes arena slot indices,
  // so it needs this run to have resolved that arena (memplan on).
  if (opts.jit != nullptr) {
    const JitKernel& kernel = *opts.jit;
    CORTEX_CHECK(!kernel.has_arena() || plan != nullptr)
        << "JIT kernel built against a memory plan needs the planner "
           "(CORTEX_MEMPLAN=0 is set)";
    std::vector<float*> param_table;
    param_table.reserve(kernel.params_order().size());
    for (const std::string& name : kernel.params_order()) {
      auto pit = params.tensors.find(name);
      if (pit != params.tensors.end()) {
        // Const in spirit, like the evaluator binding above: a lowered
        // model never stores to its input buffers.
        param_table.push_back(const_cast<Tensor&>(pit->second).data());
      } else {
        auto bit = run.buffers.find(name);
        CORTEX_CHECK(bit != run.buffers.end())
            << "JIT kernel param '" << name << "' has no storage";
        param_table.push_back(bit->second.data());
      }
    }
    const std::int32_t* lin_table[ilir::kNumStructureArrays] = {
        lin.left.data(),          lin.right.data(),
        lin.word.data(),          lin.batch_begin.data(),
        lin.batch_length.data(),  lin.child_offsets.data(),
        lin.child_ids.data(),     lin.exec_order.data()};
    std::int64_t scalar_table[ilir::kNumScalars];
    for (std::size_t i = 0; i < ilir::kNumScalars; ++i)
      scalar_table[i] = scalars.at(ilir::kScalarNames[i]);
    std::int64_t counters[1] = {0};
    kernel.fn()(arena.get(), layout.slot_offsets.data(), param_table.data(),
                lin_table, scalar_table, counters);
    run.barriers = counters[0];
    run.ran_jit = true;
  } else {
    ev.run();
    run.barriers = ev.barriers_executed();
  }

  if (run.ran_jit && jit_check_enabled()) {
    // Differential oracle: re-run interpreted on fresh storage and demand
    // bitwise equality of every buffer plus the barrier count.
    IlirRunOptions oracle_opts = opts;
    oracle_opts.jit = nullptr;
    oracle_opts.profiler = nullptr;
    const IlirRun oracle = run_ilir(program, lin, params, oracle_opts);
    CORTEX_CHECK(oracle.barriers == run.barriers)
        << "JIT/interpreter barrier divergence: " << run.barriers << " vs "
        << oracle.barriers;
    for (auto& [name, tensor] : run.buffers) {
      const Tensor& ref = oracle.at(name);
      CORTEX_CHECK(tensor.numel() == ref.numel())
          << "JIT/interpreter shape divergence in " << name;
      CORTEX_CHECK(std::memcmp(tensor.data(), ref.data(),
                               static_cast<std::size_t>(tensor.numel()) *
                                   sizeof(float)) == 0)
          << "JIT/interpreter bitwise divergence in buffer " << name;
    }
  }

  if (opts.profiler != nullptr) {
    opts.profiler->ilir_arena_bytes =
        std::max(opts.profiler->ilir_arena_bytes, run.arena_bytes);
    opts.profiler->ilir_buffers_reused += run.buffers_reused;
  }
  return run;
}

IlirRun run_ilir(const ilir::Program& program,
                 const linearizer::Linearized& lin,
                 const models::ModelParams& params) {
  return run_ilir(program, lin, params, IlirRunOptions{});
}

}  // namespace cortex::exec
