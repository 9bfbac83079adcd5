#include "ocl/program.h"

#include <gtest/gtest.h>

namespace binopt::ocl {
namespace {

TEST(BuildOptions, ParsesAlteraStyleDefines) {
  const auto opts = parse_build_options(
      "-DNUM_SIMD_WORK_ITEMS=4 -DNUM_COMPUTE_UNITS=3 -DUNROLL_FACTOR=2");
  EXPECT_EQ(opts.simd_width, 4u);
  EXPECT_EQ(opts.num_compute_units, 3u);
  EXPECT_EQ(opts.unroll_factor, 2u);
}

TEST(BuildOptions, MissingOptionsDefaultToOne) {
  const auto opts = parse_build_options("");
  EXPECT_EQ(opts.simd_width, 1u);
  EXPECT_EQ(opts.num_compute_units, 1u);
  EXPECT_EQ(opts.unroll_factor, 1u);
}

TEST(BuildOptions, IgnoresUnknownTokens) {
  const auto opts = parse_build_options(
      "-cl-fast-relaxed-math -DFOO=9 -I/inc -DNUM_SIMD_WORK_ITEMS=2");
  EXPECT_EQ(opts.simd_width, 2u);
}

TEST(BuildOptions, TolerantOfExtraWhitespace) {
  const auto opts =
      parse_build_options("   -DUNROLL_FACTOR=8    -DNUM_SIMD_WORK_ITEMS=2 ");
  EXPECT_EQ(opts.unroll_factor, 8u);
  EXPECT_EQ(opts.simd_width, 2u);
}

TEST(BuildOptions, MalformedValuesThrow) {
  EXPECT_THROW((void)parse_build_options("-DNUM_SIMD_WORK_ITEMS=abc"),
               PreconditionError);
  EXPECT_THROW((void)parse_build_options("-DNUM_SIMD_WORK_ITEMS=0"),
               PreconditionError);
  EXPECT_THROW((void)parse_build_options("-DNUM_SIMD_WORK_ITEMS=3"),
               PreconditionError);  // not a power of two
}

TEST(BuildOptions, RenderRoundTrips) {
  fpga::CompileOptions opts{4, 3, 2};
  const auto parsed = parse_build_options(render_build_options(opts));
  EXPECT_EQ(parsed.simd_width, 4u);
  EXPECT_EQ(parsed.num_compute_units, 3u);
  EXPECT_EQ(parsed.unroll_factor, 2u);
}

TEST(Program, RegistersAndLooksUpKernels) {
  Program program("-DNUM_SIMD_WORK_ITEMS=2");
  Kernel k;
  k.name = "my_kernel";
  k.body = [](WorkItemCtx&, const KernelArgs&) -> WorkItemTask { co_return; };
  program.add_kernel(std::move(k));
  EXPECT_TRUE(program.has_kernel("my_kernel"));
  EXPECT_FALSE(program.has_kernel("other"));
  EXPECT_EQ(program.kernel("my_kernel").name, "my_kernel");
  EXPECT_EQ(program.kernel_count(), 1u);
  EXPECT_EQ(program.compile_options().simd_width, 2u);
}

TEST(Program, RejectsDuplicatesAndAnonymousKernels) {
  Program program;
  Kernel k;
  k.name = "dup";
  k.body = [](WorkItemCtx&, const KernelArgs&) -> WorkItemTask { co_return; };
  program.add_kernel(k);
  EXPECT_THROW(program.add_kernel(k), PreconditionError);
  Kernel anon;
  anon.body = [](WorkItemCtx&, const KernelArgs&) -> WorkItemTask {
    co_return;
  };
  EXPECT_THROW(program.add_kernel(anon), PreconditionError);
  EXPECT_THROW((void)program.kernel("missing"), PreconditionError);
}

}  // namespace
}  // namespace binopt::ocl
