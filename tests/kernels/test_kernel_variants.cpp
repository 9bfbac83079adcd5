// Variant tests: the host-leaves fallback of kernel IV.B (the paper's
// Power-operator mitigation), European exercise through both kernels, and
// a parameterised three-way equivalence sweep (reference = kernel A =
// kernel B) across tree sizes and option types.
#include <gtest/gtest.h>

#include <string>

#include "common/statistics.h"
#include "finance/workload.h"
#include "kernels/kernel_a.h"
#include "kernels/kernel_b.h"
#include "ocl/platform.h"

namespace binopt::kernels {
namespace {

class VariantTest : public ::testing::Test {
protected:
  VariantTest() : platform_(ocl::Platform::make_reference_platform()) {}
  ocl::Device& fpga() { return platform_->device_by_kind(ocl::DeviceKind::kFpga); }
  std::unique_ptr<ocl::Platform> platform_;
};

TEST_F(VariantTest, HostLeavesFallbackIsExactDespiteApproxPow) {
  // The Section V-C mitigation: with host-computed leaves the FPGA build
  // must lose its Power-operator error entirely.
  const auto batch = finance::make_random_batch(10, 404);
  const std::size_t n = 64;
  const auto expected = finance::BinomialPricer(n).price_batch(batch);

  KernelBHostProgram on_device(
      fpga(), {.steps = n, .mode = MathMode::kFpgaApproxPow});
  KernelBHostProgram fallback(fpga(), {.steps = n,
                                       .mode = MathMode::kFpgaApproxPow,
                                       .host_leaves = true});
  const double rmse_device = rmse(on_device.run(batch).prices, expected);
  const double rmse_fallback = rmse(fallback.run(batch).prices, expected);
  EXPECT_GT(rmse_device, 1e-7);    // the defect is present on-device...
  EXPECT_LT(rmse_fallback, 1e-11); // ...and gone with host leaves
}

TEST_F(VariantTest, HostLeavesCostsExtraTransfersAndGlobalReads) {
  // "to the detriment of speed": the fallback ships (N+1) doubles per
  // option through PCIe and reads them back out of global memory.
  const auto batch = finance::make_random_batch(6, 405);
  const std::size_t n = 32;
  KernelBHostProgram on_device(fpga(), {.steps = n});
  KernelBHostProgram fallback(fpga(), {.steps = n, .host_leaves = true});
  const auto r_device = on_device.run(batch);
  const auto r_fallback = fallback.run(batch);
  const auto leaf_bytes = batch.size() * (n + 1) * sizeof(double);
  EXPECT_EQ(r_fallback.stats.host_to_device_bytes,
            r_device.stats.host_to_device_bytes + leaf_bytes);
  EXPECT_GT(r_fallback.stats.global_load_bytes,
            r_device.stats.global_load_bytes);
  EXPECT_EQ(r_fallback.stats.host_transfers,
            r_device.stats.host_transfers + 1);
}

TEST_F(VariantTest, FixedPointRejectsHostLeaves) {
  EXPECT_THROW((void)make_kernel_b(16, MathMode::kFixedPoint,
                                   /*host_leaves=*/true),
               PreconditionError);
}

TEST_F(VariantTest, EuropeanExerciseThroughKernelA) {
  finance::WorkloadConfig config;
  config.style = finance::ExerciseStyle::kEuropean;
  config.type = finance::OptionType::kPut;  // puts show the premium gap
  const auto batch = finance::make_random_batch(10, 406, config);
  KernelAHostProgram host(fpga(), {.steps = 32});
  const auto prices = host.run(batch).prices;
  const auto expected = finance::BinomialPricer(32).price_batch(batch);
  EXPECT_LT(max_abs_error(prices, expected), 1e-11);
}

TEST_F(VariantTest, EuropeanExerciseThroughKernelB) {
  finance::WorkloadConfig config;
  config.style = finance::ExerciseStyle::kEuropean;
  config.type = finance::OptionType::kPut;
  const auto batch = finance::make_random_batch(10, 407, config);
  KernelBHostProgram host(fpga(), {.steps = 32});
  const auto prices = host.run(batch).prices;
  const auto expected = finance::BinomialPricer(32).price_batch(batch);
  EXPECT_LT(max_abs_error(prices, expected), 1e-11);
}

TEST_F(VariantTest, EuropeanExerciseThroughFixedPointKernel) {
  finance::WorkloadConfig config;
  config.style = finance::ExerciseStyle::kEuropean;
  config.type = finance::OptionType::kPut;
  const auto batch = finance::make_random_batch(8, 408, config);
  KernelBHostProgram host(fpga(), {.steps = 32,
                                   .mode = MathMode::kFixedPoint});
  const auto prices = host.run(batch).prices;
  const auto expected = finance::BinomialPricer(32).price_batch(batch);
  EXPECT_LT(max_abs_error(prices, expected), 1e-8);
}

TEST_F(VariantTest, AmericanPremiumVisibleThroughBothKernels) {
  // The same put batch priced American vs European through the full
  // OpenCL stack must show a strictly positive early-exercise premium.
  finance::WorkloadConfig put_cfg;
  put_cfg.type = finance::OptionType::kPut;
  put_cfg.style = finance::ExerciseStyle::kAmerican;
  auto amer = finance::make_random_batch(6, 409, put_cfg);
  auto euro = amer;
  for (auto& spec : euro) spec.style = finance::ExerciseStyle::kEuropean;

  KernelBHostProgram host(fpga(), {.steps = 48});
  const auto p_amer = host.run(amer).prices;
  const auto p_euro = host.run(euro).prices;
  for (std::size_t i = 0; i < p_amer.size(); ++i) {
    EXPECT_GE(p_amer[i], p_euro[i] - 1e-12) << "option " << i;
  }
}

// --- Parameterised three-way equivalence sweep --------------------------------

struct SweepCase {
  std::size_t steps;
  finance::OptionType type;
  finance::ExerciseStyle style;
};

class EquivalenceSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EquivalenceSweep, ReferenceKernelAKernelBAgree) {
  const SweepCase c = GetParam();
  auto platform = ocl::Platform::make_reference_platform();
  ocl::Device& device = platform->device_by_kind(ocl::DeviceKind::kGpu);

  finance::WorkloadConfig config;
  config.type = c.type;
  config.style = c.style;
  const auto batch = finance::make_random_batch(6, 1000 + c.steps, config);
  const auto reference = finance::BinomialPricer(c.steps).price_batch(batch);

  KernelAHostProgram a(device, {.steps = c.steps});
  KernelBHostProgram b(device, {.steps = c.steps});
  EXPECT_LT(max_abs_error(a.run(batch).prices, reference), 1e-10);
  EXPECT_LT(max_abs_error(b.run(batch).prices, reference), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, EquivalenceSweep,
    ::testing::Values(
        SweepCase{8, finance::OptionType::kCall, finance::ExerciseStyle::kAmerican},
        SweepCase{16, finance::OptionType::kPut, finance::ExerciseStyle::kAmerican},
        SweepCase{33, finance::OptionType::kCall, finance::ExerciseStyle::kEuropean},
        SweepCase{64, finance::OptionType::kPut, finance::ExerciseStyle::kEuropean},
        SweepCase{100, finance::OptionType::kPut, finance::ExerciseStyle::kAmerican}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      // Appended piecewise: GCC 12 misreports `"N" + to_string(...)` at
      // -O3 as an overlapping memcpy (-Wrestrict).
      std::string name = "N";
      name += std::to_string(info.param.steps);
      name += info.param.type == finance::OptionType::kCall ? "Call" : "Put";
      name += info.param.style == finance::ExerciseStyle::kAmerican ? "Amer"
                                                                    : "Euro";
      return name;
    });

}  // namespace
}  // namespace binopt::kernels
