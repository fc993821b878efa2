#include "exec/ilir_runner.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "exec/jit.hpp"
#include "exec/memory_plan.hpp"
#include "ilir/codegen_c.hpp"
#include "ilir/passes.hpp"
#include "ilir/verify.hpp"

namespace cortex::exec {

CompiledIlir compile_ilir(const ra::Model& model,
                          const ra::Schedule& schedule) {
  lowering::LoweredModel lm = lowering::lower(model, schedule);
  MemoryPlanOptions mp_opts;
  mp_opts.live_out = {lm.output};
  ilir::verify_or_throw(lm.program, "lower");
  const ilir::PassObserver observe = [&mp_opts](const std::string& pass,
                                                const ilir::Program& after) {
    ilir::VerifyOptions opt;
    // Barrier-presence legality only holds once barriers exist.
    opt.require_barriers = pass == "insert_barriers";
    ilir::verify_or_throw(after, pass, opt);
    // Re-plan and re-prove the memory plan after every pass: a pass that
    // moves or widens buffer lifetimes must still yield an overlap-free,
    // in-bounds arena assignment.
    verify_memory_plan_or_throw(after, plan_memory(after, mp_opts), pass,
                                mp_opts);
  };
  ilir::PipelineConfig cfg;
  cfg.fuse = schedule.fusion == ra::FusionLevel::kMaximal;
  cfg.dense_index = schedule.dense_intermediates && schedule.dynamic_batching;
  cfg.peel = schedule.loop_peeling && schedule.dynamic_batching;
  cfg.improved_barriers = schedule.improved_barrier_placement;
  cfg.live_out = {lm.output};
  ilir::Program optimized =
      ilir::apply_schedule_passes(lm.program, cfg, observe);
  MemoryPlan memory = plan_memory(optimized, mp_opts);
  verify_memory_plan_or_throw(optimized, memory, "final", mp_opts);
  return CompiledIlir{std::move(lm), std::move(optimized), std::move(memory)};
}

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
  scalars["max_batch_size"] = lin.max_batch_length();

  IlirRun run;
  ilir::Evaluator ev(program, lin);
  ev.bind_structure();

  // Storage: one zero-filled arena with planner-assigned slot offsets.
  // A buffer the plan has no entry for gets its own zeroed tensor, so an
  // empty MemoryPlan gives the per-buffer reference allocator.
  MemoryPlan local_plan;
  const MemoryPlan* plan = opts.plan;
  if (plan == nullptr) {
    local_plan = plan_memory(program);
    plan = &local_plan;
  }
  const ResolvedArena layout = resolve_arena(*plan, scalars);
  // Value-initialized: the single zero-fill every zero_init buffer relies
  // on. Per-call allocation keeps concurrent runs independent.
  const std::shared_ptr<float[]> arena(new float[static_cast<std::size_t>(
      std::max<std::int64_t>(layout.arena_bytes / 4, 1))]());
  run.arena_bytes = layout.arena_bytes;
  run.sum_buffer_bytes = layout.sum_buffer_bytes;
  run.buffers_reused = plan->buffers_reused;

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
    const BufferPlanEntry* entry = plan->find(b.name);
    Tensor t;
    if (entry != nullptr) {
      const std::int64_t offset =
          layout.slot_offsets[static_cast<std::size_t>(entry->slot)];
      t = Tensor::view_into(std::move(shape), arena, offset / 4);
    } else {
      // No plan entry: unplanned buffer (never written — an externally
      // shaped placeholder with no parameter bound) or an empty plan.
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
  // else the interpreter. A kernel bakes its program's extents (and a
  // plan-built one its arena slot indices), so it runs only over the
  // program, and the plan, it was built from.
  if (opts.jit != nullptr) {
    const JitKernel& kernel = *opts.jit;
    CORTEX_CHECK(kernel.fingerprint() ==
                 kernel_fingerprint(program, kernel.has_arena() ? plan
                                                                : nullptr))
        << "JIT kernel was built from a different program or memory plan "
           "than this run's (program '"
        << program.name << "', " << plan->slots.size() << " slots)";
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
    const std::vector<std::int32_t> exec_order = linearizer::node_order(lin);
    const std::int32_t* lin_table[ilir::kNumStructureArrays] = {
        lin.word.data(),          lin.batch_begin.data(),
        lin.batch_length.data(),  lin.child_offsets.data(),
        lin.child_ids.data(),     exec_order.data()};
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

  return run;
}

IlirRun run_ilir(const ilir::Program& program,
                 const linearizer::Linearized& lin,
                 const models::ModelParams& params) {
  return run_ilir(program, lin, params, IlirRunOptions{});
}

}  // namespace cortex::exec
