#pragma once
// Reference evaluator for ILIR programs: interprets the loop IR against
// real buffers, resolving uninterpreted structure functions against a
// linearized data structure. This is the semantic ground truth that the
// fast execution engine (src/exec) and every scheduling transformation are
// tested against.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ilir/ilir.hpp"
#include "linearizer/linearizer.hpp"
#include "tensor/tensor.hpp"

namespace cortex::ilir {

/// A buffer binding: either float data (tensors) or int32 data
/// (linearizer arrays). Non-owning.
struct Binding {
  ra::DType dtype = ra::DType::kFloat;
  float* f32 = nullptr;
  const std::int32_t* i32 = nullptr;
  std::vector<std::int64_t> shape;

  static Binding tensor(Tensor& t);
  static Binding ints(const std::vector<std::int32_t>& v);
};

/// Interprets a Program. Uninterpreted functions (child, words, isleaf,
/// num_children) resolve against `lin`; loads/stores resolve against the
/// bound buffers; free integer variables (N, num_internal_batches, ...)
/// resolve against `scalars`.
class Evaluator {
 public:
  Evaluator(const Program& program, const linearizer::Linearized& lin);

  void bind(const std::string& name, Binding b);
  void bind_scalar(const std::string& name, std::int64_t v);

  /// Binds the standard linearizer arrays under their conventional names
  /// (words, batch_begin, batch_length, child_offsets, child_ids, and
  /// exec_order: linearizer::node_order, owned by this evaluator) plus the
  /// runtime scalars (N, num_leaves, ...; H is the caller's concern).
  void bind_structure();

  /// Executes the program body.
  void run();

  /// Barriers executed during the last run() (validates §A.4 counts).
  std::int64_t barriers_executed() const { return barriers_; }

 private:
  struct Value {
    double f = 0.0;
    std::int64_t i = 0;
    bool is_int = false;
    double as_f() const { return is_int ? static_cast<double>(i) : f; }
    std::int64_t as_i() const {
      return is_int ? i : static_cast<std::int64_t>(f);
    }
  };

  Value eval(const Expr& e);
  void exec(const Stmt& s);
  std::int64_t flat_index(const Binding& b, const std::vector<Expr>& idx);

  const Program& program_;
  const linearizer::Linearized& lin_;
  std::vector<std::int32_t> exec_order_;  ///< bound by bind_structure()
  std::map<std::string, Binding> buffers_;
  std::map<std::string, std::int64_t> vars_;
  std::int64_t barriers_ = 0;
};

}  // namespace cortex::ilir
