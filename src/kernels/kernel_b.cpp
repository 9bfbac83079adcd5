#include "kernels/kernel_b.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/error.h"
#include "fpga/approx_math.h"
#include "fpga/fixed_point.h"

namespace binopt::kernels {

namespace {

/// Doubles per option-parameter record: S0, u, rp (= discount * p),
/// rq (= discount * q), strike, payoff sign, padding x2.
constexpr std::size_t kParamStride = 8;

/// Device pow dispatch for the leaf initialisation.
double device_pow(MathMode mode, double base, double exponent) {
  switch (mode) {
    case MathMode::kExactDouble:
      return std::pow(base, exponent);
    case MathMode::kFpgaApproxPow:
      return fpga::approx_pow(base, exponent);
    case MathMode::kSingle:
      return static_cast<double>(
          std::pow(static_cast<float>(base), static_cast<float>(exponent)));
    case MathMode::kFixedPoint:
      break;  // the fixed-point kernel has its own body
  }
  throw InvariantError("unhandled MathMode in device_pow");
}

/// Fused multiply-add-style continuation in the selected precision.
double device_continuation(MathMode mode, double rp, double v_up, double rq,
                           double v_down) {
  if (mode == MathMode::kSingle) {
    const float r = static_cast<float>(rp) * static_cast<float>(v_up) +
                    static_cast<float>(rq) * static_cast<float>(v_down);
    return static_cast<double>(r);
  }
  return rp * v_up + rq * v_down;
}

double device_mul(MathMode mode, double a, double b) {
  if (mode == MathMode::kSingle) {
    return static_cast<double>(static_cast<float>(a) * static_cast<float>(b));
  }
  return a * b;
}

double device_payoff(MathMode mode, double sign, double s, double strike) {
  if (mode == MathMode::kSingle) {
    const float p = static_cast<float>(sign) *
                    (static_cast<float>(s) - static_cast<float>(strike));
    return std::max(static_cast<double>(p), 0.0);
  }
  return std::max(sign * (s - strike), 0.0);
}

}  // namespace

namespace {

/// Fixed-point body of kernel IV.B (MathMode::kFixedPoint): the same
/// Figure 4 dataflow with a Q17.46 datapath. Leaves are initialised by
/// binary powering (the host supplies both u and d = 1/u so no divider is
/// instantiated), and the shared value row holds raw fixed-point words.
ocl::Kernel make_kernel_b_fixed(std::size_t steps) {
  using Fx = fpga::PriceFixed;
  ocl::Kernel kernel;
  kernel.name = "binomial_workgroup_option_q17_46";
  kernel.body = [steps](ocl::WorkItemCtx& ctx,
                        const ocl::KernelArgs& args) -> ocl::WorkItemTask {
    auto params = ctx.global<double>(args.buffer(0));
    auto results = ctx.global<double>(args.buffer(1));

    const std::size_t n = steps;
    const std::size_t k = ctx.local_id();
    const std::size_t option = ctx.group_id();

    const std::size_t base = option * 8;  // kParamStride
    const Fx s0 = Fx::from_double(params.get(base));
    const Fx u = Fx::from_double(params.get(base + 1));
    const Fx rp = Fx::from_double(params.get(base + 2));
    const Fx rq = Fx::from_double(params.get(base + 3));
    const Fx strike = Fx::from_double(params.get(base + 4));
    const bool is_call = params.get(base + 5) > 0.0;
    const Fx down = Fx::from_double(params.get(base + 6));  // 1/u, host-side
    const bool american = params.get(base + 7) > 0.0;

    auto payoff = [&](Fx s) {
      const Fx intrinsic = is_call ? s - strike : strike - s;
      return Fx::max(intrinsic, Fx::zero());
    };

    auto values = ctx.local_array<std::int64_t>(n + 1);

    // Leaf S(N,k) = S0 * u^(2k - N) by binary powering.
    const auto nn = static_cast<long long>(n);
    const long long e = 2 * static_cast<long long>(k) - nn;
    Fx s_priv =
        s0 * (e >= 0 ? Fx::ipow(u, static_cast<std::uint64_t>(e))
                     : Fx::ipow(down, static_cast<std::uint64_t>(-e)));
    values.set(k, payoff(s_priv).raw());
    if (k == n - 1) {
      const Fx s_top = s0 * Fx::ipow(u, static_cast<std::uint64_t>(n));
      values.set(n, payoff(s_top).raw());
    }
    co_await ctx.barrier();

    for (std::size_t t = n; t-- > 0;) {
      Fx new_value = Fx::zero();
      const bool active = k <= t;
      if (active) {
        s_priv = s_priv * u;
        const Fx v_down = Fx::from_raw(values.get(k));
        const Fx v_up = Fx::from_raw(values.get(k + 1));
        const Fx continuation = rp * v_up + rq * v_down;
        new_value = american ? Fx::max(payoff(s_priv), continuation)
                             : continuation;
      }
      co_await ctx.barrier();
      if (active) values.set(k, new_value.raw());
      co_await ctx.barrier();
    }

    if (k == 0) results.set(option, Fx::from_raw(values.get(0)).to_double());
  };
  return kernel;
}

}  // namespace

ocl::Kernel make_kernel_b(std::size_t steps, MathMode mode, bool host_leaves) {
  BINOPT_REQUIRE(steps >= 2, "kernel B needs at least two tree steps");
  BINOPT_REQUIRE(!(mode == MathMode::kFixedPoint && host_leaves),
                 "the fixed-point body has exact on-device leaves; the "
                 "host-leaves fallback applies to the FP datapath");
  if (mode == MathMode::kFixedPoint) return make_kernel_b_fixed(steps);
  ocl::Kernel kernel;
  kernel.name = host_leaves ? "binomial_workgroup_option_hostleaves"
                            : "binomial_workgroup_option";
  kernel.body = [steps, mode, host_leaves](
                    ocl::WorkItemCtx& ctx,
                    const ocl::KernelArgs& args) -> ocl::WorkItemTask {
    // Argument layout: 0: option parameter records, 1: result buffer,
    // 2 (host_leaves only): host-computed leaf asset prices.
    auto params = ctx.global<double>(args.buffer(0));
    auto results = ctx.global<double>(args.buffer(1));

    const std::size_t n = steps;
    const std::size_t k = ctx.local_id();   // tree row owned by this item
    const std::size_t option = ctx.group_id();

    // Option parameters: copied from global into private memory once,
    // during leaf initialisation (paper Section IV-B).
    const std::size_t base = option * kParamStride;
    const double s0 = params.get(base);
    const double u = params.get(base + 1);
    const double rp = params.get(base + 2);
    const double rq = params.get(base + 3);
    const double strike = params.get(base + 4);
    const double sign = params.get(base + 5);
    const bool american = params.get(base + 7) > 0.0;

    // Shared value row in local memory: V(t, 0..N).
    auto values = ctx.local_array<double>(n + 1);

    double s_priv = 0.0;
    if (host_leaves) {
      // Fallback path (Section V-C): leaves came from the host through
      // global memory and are copied into local — exact, but with extra
      // transfers and global reads "to the detriment of speed".
      auto leaves = ctx.global<double>(args.buffer(2));
      const std::size_t leaf_base = option * (n + 1);
      s_priv = leaves.get(leaf_base + k);
      values.set(k, device_payoff(mode, sign, s_priv, strike));
      if (k == n - 1) {
        const double s_top = leaves.get(leaf_base + n);
        values.set(n, device_payoff(mode, sign, s_top, strike));
      }
    } else {
      // Leaf initialisation on the device: S(N,k) = S0 * u^(2k - N) via
      // the pow operator — the FPGA accuracy story starts here.
      const double exponent =
          2.0 * static_cast<double>(k) - static_cast<double>(n);
      s_priv = device_mul(mode, s0, device_pow(mode, u, exponent));
      values.set(k, device_payoff(mode, sign, s_priv, strike));
      if (k == n - 1) {
        // Group size is N, leaves are N+1: the last work-item also seeds
        // the all-up leaf.
        const double s_top = device_mul(
            mode, s0, device_pow(mode, u, static_cast<double>(n)));
        values.set(n, device_payoff(mode, sign, s_top, strike));
      }
    }
    co_await ctx.barrier();

    // Backward iteration: work-item k updates V(t,k) while k <= t, going
    // idle afterwards ("left idle or its results are ignored").
    for (std::size_t t = n; t-- > 0;) {
      double new_value = 0.0;
      const bool active = k <= t;
      if (active) {
        s_priv = device_mul(mode, s_priv, u);  // S(t,k) from S(t+1,k)
        const double v_down = values.get(k);
        const double v_up = values.get(k + 1);
        const double continuation =
            device_continuation(mode, rp, v_up, rq, v_down);
        new_value = american
                        ? std::max(device_payoff(mode, sign, s_priv, strike),
                                   continuation)
                        : continuation;
      }
      // First barrier: everyone has read the old row (the paper's
      // temporary-copy step); second: the row is consistently updated.
      co_await ctx.barrier();
      if (active) values.set(k, new_value);
      co_await ctx.barrier();
    }

    if (k == 0) results.set(option, values.get(0));
  };
  return kernel;
}

KernelBHostProgram::KernelBHostProgram(ocl::Device& device, Config config)
    : device_(device), config_(config) {
  BINOPT_REQUIRE(config_.steps >= 2, "need at least two tree steps");
  BINOPT_REQUIRE(config_.steps <= device_.limits().max_workgroup_size,
                 "tree steps ", config_.steps,
                 " exceed the device's max work-group size ",
                 device_.limits().max_workgroup_size);
}

KernelBResult KernelBHostProgram::run(
    const std::vector<finance::OptionSpec>& options) {
  BINOPT_REQUIRE(!options.empty(), "no options to price");
  const std::size_t n = config_.steps;
  const std::size_t num_options = options.size();

  const ocl::RuntimeStats before = device_.stats();

  ocl::Context context(device_);
  ocl::CommandQueue queue(context);

  ocl::Buffer& params = context.create_buffer_of<double>(
      num_options * kParamStride, ocl::MemFlags::kReadOnly, "option_params");
  ocl::Buffer& results = context.create_buffer_of<double>(
      num_options, ocl::MemFlags::kWriteOnly, "results");

  // Host command (1): copy all option parameters to global memory.
  {
    std::vector<double> records(num_options * kParamStride, 0.0);
    for (std::size_t i = 0; i < num_options; ++i) {
      const finance::OptionSpec& spec = options[i];
      const finance::LatticeParams lp =
          finance::LatticeParams::from(spec, n, config_.convention);
      double* rec = records.data() + i * kParamStride;
      rec[0] = spec.spot;
      rec[1] = lp.up;
      rec[2] = lp.discount * lp.prob_up;
      rec[3] = lp.discount * lp.prob_down;
      rec[4] = spec.strike;
      rec[5] = spec.type == finance::OptionType::kCall ? 1.0 : -1.0;
      rec[6] = lp.down;  // 1/u — the fixed-point body needs it host-side
      rec[7] =
          spec.style == finance::ExerciseStyle::kAmerican ? 1.0 : 0.0;
    }
    queue.write<double>(params, records);
  }

  // Host-leaves fallback: compute every option's leaf asset prices on the
  // host (iterative multiplication, exact) and ship them through global
  // memory (Section V-C's mitigation for the Power-operator defect).
  ocl::Buffer* leaves = nullptr;
  if (config_.host_leaves) {
    leaves = &context.create_buffer_of<double>(
        num_options * (n + 1), ocl::MemFlags::kReadOnly, "host_leaves");
    const finance::BinomialPricer pricer(n, config_.convention);
    std::vector<double> all_leaves(num_options * (n + 1));
    for (std::size_t i = 0; i < num_options; ++i) {
      const std::vector<double> leaf = pricer.leaf_assets_iterative(options[i]);
      std::copy(leaf.begin(), leaf.end(),
                all_leaves.begin() + static_cast<std::ptrdiff_t>(i * (n + 1)));
    }
    queue.write<double>(*leaves, all_leaves);
  }

  // Host command (2): enqueue enough kernels to process all the data.
  const ocl::Kernel kernel =
      make_kernel_b(n, config_.mode, config_.host_leaves);
  ocl::KernelArgs args;
  args.set(0, &params);
  args.set(1, &results);
  if (leaves != nullptr) args.set(2, leaves);
  queue.enqueue_ndrange(kernel, args, ocl::NDRange{num_options * n, n});

  // Host command (3): read back the final results.
  KernelBResult result;
  result.prices.assign(num_options, 0.0);
  queue.read<double>(results, result.prices);
  result.work_groups = num_options;
  result.stats = device_.stats().minus(before);
  return result;
}

}  // namespace binopt::kernels
