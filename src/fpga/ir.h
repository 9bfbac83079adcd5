// Kernel dataflow IR — the FPGA toolchain model's view of an OpenCL kernel.
//
// The Altera OpenCL compiler turns a kernel body into a deeply pipelined
// datapath; what determines resources and fmax is the *operator mix*, the
// memory access sites (each becomes a load/store unit with coalescing
// FIFOs), the local-memory buffers (banked into M9K blocks), and the three
// parallelisation options the paper sweeps: SIMD vectorization, compute-
// unit replication, and loop unrolling (Section V-B). This IR captures
// exactly those properties.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/error.h"

namespace binopt::fpga {

/// Floating-point / integer operator kinds with distinct hardware cost.
enum class OpKind {
  kFAdd,   ///< fp add/sub
  kFMul,   ///< fp multiply
  kFDiv,   ///< fp divide
  kFMax,   ///< fp max / compare-select
  kFExp,   ///< exponential megafunction
  kFLog,   ///< logarithm megafunction
  kFPow,   ///< power operator (the paper's accuracy-problem child)
  kIAdd,   ///< integer add (index arithmetic)
  kIMul,   ///< integer multiply (address scaling)
};

[[nodiscard]] std::string to_string(OpKind kind);

/// Numeric precision of a datapath lane.
enum class Precision { kSingle, kDouble };

[[nodiscard]] std::string to_string(Precision p);

/// Where an operator sits in the kernel structure — determines which
/// parallelisation options multiply it.
enum class Section {
  kStraightLine,  ///< per work-item, outside any unrollable loop
  kLoopBody,      ///< inside the kernel's innermost loop (unrollable)
};

/// A counted operator instance in the kernel body.
struct OpInstance {
  OpKind kind = OpKind::kFAdd;
  Precision precision = Precision::kDouble;
  Section section = Section::kStraightLine;
  double count = 1.0;  ///< static instances in the body
};

/// Kind of memory behind an access site.
enum class MemSpace { kGlobal, kLocal };

/// A symbolic element-index expression, affine in the kernel's launch
/// symbols. This is the contract the symbolic verifier
/// (src/ocl/analyzer/symbolic/) reasons over: for the paper's kernels every
/// index is affine in the work-item ids, the ascending loop iteration, and
/// the kernel scalar `steps`, so interval evaluation over the launch box is
/// *exact* (an affine function attains its extremes at box corners) and a
/// violated bound always yields a concrete witness assignment.
///
/// index = c0 + c_local*local_id + c_group*group_id + c_global*global_id
///       + c_loop*iter + c_steps*steps + c_aux*aux
///
/// `aux` is a per-expression data-dependent value (e.g. kernel IV.A's
/// in-flight level t) known only to lie in [0, aux_bound_c0 +
/// aux_bound_csteps*steps]; expressions with c_aux != 0 stay sound but give
/// up witness exactness for race proofs.
struct AffineIndexExpr {
  long long c0 = 0;        ///< constant term (elements)
  long long c_local = 0;   ///< * local work-item id within the group
  long long c_group = 0;   ///< * work-group id
  long long c_global = 0;  ///< * global work-item id
  long long c_loop = 0;    ///< * loop iteration (ascending, 0-based)
  long long c_steps = 0;   ///< * the kernel scalar `steps`
  long long c_aux = 0;     ///< * bounded data-dependent auxiliary value
  long long aux_bound_c0 = 0;      ///< aux upper bound: constant part
  long long aux_bound_csteps = 0;  ///< aux upper bound: *steps part

  [[nodiscard]] bool uses_aux() const { return c_aux != 0; }
  [[nodiscard]] std::string to_string() const;
};

/// An execution predicate on a site, itself affine. kNonNegative models
/// range guards (kernel IV.B's `k <= t` active test); kZero models
/// single-writer guards (`k == 0` result write, `k == n-1` lattice top).
struct AffineGuard {
  enum class Kind {
    kAlways,       ///< unconditional
    kNonNegative,  ///< executes iff expr >= 0
    kZero,         ///< executes iff expr == 0
  };
  Kind kind = Kind::kAlways;
  AffineIndexExpr expr;  ///< the guard expression (index semantics unused)

  [[nodiscard]] bool always() const { return kind == Kind::kAlways; }
  [[nodiscard]] std::string to_string() const;
};

/// A static load/store site in the kernel (each becomes an LSU).
///
/// The optional index-bound annotation feeds the static hazard lint
/// (src/ocl/analyzer/ir_lint.*): `buffer` names the declared buffer the
/// site touches (index into KernelIR::global_buffers or ::local_buffers by
/// `space`), and `max_index` is the largest element index the kernel's
/// index expression can produce — for the paper's kernels these are affine
/// in the work-item/loop ids, so the bound is a compile-time constant.
struct AccessSite {
  MemSpace space = MemSpace::kGlobal;
  bool is_store = false;
  Section section = Section::kStraightLine;
  std::size_t element_bytes = 8;
  double count = 1.0;  ///< static sites of this shape

  static constexpr std::size_t kNoBuffer = static_cast<std::size_t>(-1);
  std::size_t buffer = kNoBuffer;  ///< declared buffer (kNoBuffer = untyped)
  bool has_index_bound = false;    ///< max_index is meaningful
  std::size_t max_index = 0;       ///< largest reachable element index

  // Symbolic extension (the verifier's input; optional — sites without it
  // are "unprovable" and flagged by the lint).
  bool has_affine_index = false;  ///< `index` below is meaningful
  AffineIndexExpr index{};        ///< element index as an affine expression
  AffineGuard guard{};            ///< execution predicate of the site
  /// Barrier segment the site sits in, counted within its region: segment
  /// s of the straight-line prologue has s barriers before it; segment s
  /// of the loop body has s in-loop barriers before it in the same
  /// iteration. Sites with after_loop=true run in the epilogue.
  std::size_t epoch = 0;
  bool after_loop = false;  ///< straight-line site past the loop
};

/// A kernel argument buffer in global memory, as declared to the
/// toolchain. `words` is the per-work-group extent the kernel indexes
/// (kernel IV.B sees an 8-word parameter record per option).
struct GlobalBufferDecl {
  std::string name;
  std::size_t words = 0;
  std::size_t word_bytes = 8;
  /// True when `words` (and the access-site expressions) describe the
  /// per-work-group window of the buffer rather than the whole allocation
  /// (kernel IV.B's 8-word parameter record). Race analysis then scopes
  /// the buffer per group, like local memory.
  bool per_workgroup = false;
};

/// A local-memory buffer declared by the kernel.
struct LocalBuffer {
  std::size_t words = 0;        ///< element count
  std::size_t word_bytes = 8;   ///< element size
  double access_sites = 1.0;    ///< static load+store sites touching it
};

/// A barrier site in the kernel body. The Altera OpenCL compiler (like
/// every conformant implementation) requires barriers to be reached by all
/// work-items of the group: a barrier under a work-item-dependent branch
/// is statically detectable undefined behaviour, flagged by the lint.
struct BarrierSite {
  bool divergent = false;  ///< under work-item-dependent control flow
  double count = 1.0;      ///< static sites of this shape
  Section section = Section::kStraightLine;  ///< prologue vs loop body
  /// Guard the barrier executes under. A guard that is not a tautology
  /// over the launch box is a convergence violation the verifier proves
  /// with a witness pair (one item reaching, one bypassing).
  AffineGuard guard;
};

/// A private scalar carried across loop iterations (kernel IV.B's running
/// spot price `s *= u`). Its operator chain is a pipeline recurrence the
/// II analysis must respect even when memory carries no dependence.
struct ScalarRecurrence {
  std::string name;
  std::vector<OpKind> chain;  ///< ops producing the next value from the last
};

/// The full kernel description handed to the toolchain.
struct KernelIR {
  std::string name;
  Precision precision = Precision::kDouble;
  std::vector<OpInstance> ops;
  std::vector<AccessSite> accesses;
  std::vector<GlobalBufferDecl> global_buffers;  ///< lint metadata
  std::vector<LocalBuffer> local_buffers;
  std::vector<BarrierSite> barriers;  ///< lint metadata
  std::vector<ScalarRecurrence> recurrences;  ///< loop-carried scalar chains
  double loop_trip_count = 1.0;   ///< informational (latency model)
  bool coalescing_fifos = false;  ///< kernel IV.A-style global FIFOs
  std::size_t private_doubles = 0;  ///< private values held in flip-flops

  // Launch-shape metadata for the symbolic verifier (0 = unconstrained).
  std::size_t steps = 0;         ///< concrete value of the `steps` symbol
  std::size_t launch_global = 0; ///< global work-items the host enqueues
  std::size_t launch_local = 0;  ///< required work-group size (0 = any)

  void validate() const;
};

/// The three Altera parallelisation options (paper Section V-B).
struct CompileOptions {
  unsigned simd_width = 1;         ///< vectorization (power of two)
  unsigned num_compute_units = 1;  ///< full pipeline replication
  unsigned unroll_factor = 1;      ///< innermost-loop unrolling

  void validate() const;

  /// Lanes the loop body is instantiated with inside one compute unit.
  [[nodiscard]] unsigned loop_lanes() const {
    return simd_width * unroll_factor;
  }

  /// Total straight-line datapath copies across the device.
  [[nodiscard]] unsigned straightline_copies() const {
    return simd_width * num_compute_units;
  }

  [[nodiscard]] std::string to_string() const;
};

}  // namespace binopt::fpga
