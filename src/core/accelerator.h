// PricingAccelerator — the library's main entry point.
//
// Combines (a) the functional OpenCL-simulator execution of a kernel on a
// modelled device (real prices, real memory traffic) with (b) the analytic
// timing and energy models calibrated to the paper's testbed. One call
// prices a batch of American options and reports prices, modelled wall
// time, throughput, power, energy efficiency, and accuracy versus the
// reference software — i.e. everything a Table II row needs.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "finance/option.h"
#include "ocl/faults/fault_plan.h"
#include "ocl/platform.h"
#include "ocl/stats.h"

namespace binopt::finance {
class BatchPricer;
}  // namespace binopt::finance

namespace binopt::core {

/// The accelerator configurations evaluated in the paper.
enum class Target {
  kCpuReference,        ///< reference software, 1 Xeon core, double
  kCpuReferenceSingle,  ///< reference software, single precision
  kFpgaKernelA,         ///< IV.A on the DE4 (double)
  kGpuKernelA,          ///< IV.A on the GTX660 Ti (double)
  kGpuKernelAReduced,   ///< modified IV.A, reduced reads (the 14x variant)
  kFpgaKernelAReduced,  ///< modified IV.A on the DE4 (paper: "ongoing")
  kFpgaKernelB,         ///< IV.B on the DE4 (double, approx pow)
  kFpgaKernelBHostLeaves,  ///< IV.B on the DE4 with the host-leaves
                           ///< fallback (Section V-C mitigation: exact)
  kGpuKernelB,          ///< IV.B on the GTX660 Ti (double)
  kGpuKernelBSingle,    ///< IV.B on the GTX660 Ti (single)
};

[[nodiscard]] std::string to_string(Target target);
[[nodiscard]] std::vector<Target> all_targets();

/// Full result of one accelerated pricing run.
struct RunReport {
  Target target = Target::kCpuReference;
  std::size_t options = 0;
  std::size_t steps = 0;

  std::vector<double> prices;

  // Modelled performance (analytic models, paper-calibrated).
  double modelled_seconds = 0.0;
  double options_per_second = 0.0;      ///< at saturation
  double nodes_per_second = 0.0;
  double power_watts = 0.0;
  double options_per_joule = 0.0;
  double energy_joules = 0.0;

  // Accuracy versus the double-precision reference software.
  double rmse_vs_reference = 0.0;

  // Functional-simulation counters (empty for the CPU reference path).
  std::optional<ocl::RuntimeStats> device_stats;
};

class PricingAccelerator {
public:
  struct Config {
    Target target = Target::kFpgaKernelB;
    std::size_t steps = 1024;
    /// Compute RMSE against the reference software (prices the batch a
    /// second time on the CPU path; disable for big throughput runs).
    bool compute_rmse = true;
    /// Host worker threads for the functional simulation (one per modelled
    /// compute unit; independent work-groups — one option per group for
    /// kernel IV.B — execute concurrently). 0 keeps the device default:
    /// the paper CU count of the selected device (GTX660 Ti: 5 SMX, DE4:
    /// 3 replicated pipelines), or BINOPT_OCL_COMPUTE_UNITS if set.
    /// Prices and RuntimeStats are identical for any value.
    std::size_t compute_units = 0;
    /// Fault plan armed on this accelerator's devices (DESIGN.md §2.5);
    /// overrides the process-wide BINOPT_OCL_FAULTS for this instance.
    /// nullopt inherits the env plan (if any); an engaged empty plan
    /// explicitly disarms injection. CPU reference targets never touch a
    /// simulated device, so plans cannot affect them.
    std::optional<ocl::faults::FaultPlan> fault_plan = std::nullopt;
  };

  explicit PricingAccelerator(Config config);
  ~PricingAccelerator();

  PricingAccelerator(const PricingAccelerator&) = delete;
  PricingAccelerator& operator=(const PricingAccelerator&) = delete;

  [[nodiscard]] const Config& config() const { return config_; }

  /// Prices a batch and assembles the full report.
  [[nodiscard]] RunReport run(const std::vector<finance::OptionSpec>& options);

  /// Prices specs[0..n) into out[0..n) — the same prices run() would
  /// report, without assembling a RunReport. This is the service hot
  /// path: on the CPU reference targets it runs the (runtime-dispatched
  /// SIMD) BatchPricer with instance-owned scratch, so steady-state calls
  /// perform no heap allocation; device targets go through the same
  /// functional simulation as run(). Not thread-safe per instance — give
  /// each worker its own accelerator, exactly as with run().
  void run_prices(const finance::OptionSpec* specs, std::size_t n,
                  double* out);

  /// The modelled saturated throughput of a target without running
  /// anything (used by the saturation and energy sweeps).
  [[nodiscard]] static double modelled_options_per_second(Target target,
                                                          std::size_t steps);

  /// Batch-shape-aware prediction: modelled wall seconds for ONE launch of
  /// `options` options on `target`. Unlike modelled_options_per_second
  /// this keeps the kernel models' fixed costs (pipeline fill for IV.A,
  /// bulk transfer for IV.B), so small batches are predicted honestly —
  /// the quantity a per-batch dispatcher must compare, not the saturated
  /// rate.
  [[nodiscard]] static double modelled_batch_seconds(Target target,
                                                     std::size_t steps,
                                                     std::size_t options);

  /// The modelled average power draw of a target.
  [[nodiscard]] static double modelled_power_watts(Target target);

private:
  Config config_;
  std::unique_ptr<ocl::Platform> platform_;
  /// Lazily-built vectorized CPU pricer (reference targets only); owns
  /// the reusable lattice scratch behind run_prices' zero-alloc promise.
  std::unique_ptr<finance::BatchPricer> batch_pricer_;
};

}  // namespace binopt::core
