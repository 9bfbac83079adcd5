#include "kernels/kernel_a.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/error.h"

namespace binopt::kernels {

namespace {

/// Doubles per option-parameter slot: u, rp (= discount * p),
/// rq (= discount * q), strike, payoff sign (+1 call / -1 put), and the
/// exercise-style flag (1 = American, 0 = European).
constexpr std::size_t kParamStride = 6;

/// Largest work-group size <= 256 that divides the NDRange (kernel A has
/// no barriers, so grouping only affects executor bookkeeping).
std::size_t pick_local_size(std::size_t global) {
  std::size_t d = std::min<std::size_t>(global, 256);
  while (global % d != 0) --d;
  return d;
}

}  // namespace

ocl::Kernel make_kernel_a(std::size_t steps) {
  BINOPT_REQUIRE(steps >= 1, "kernel A needs at least one tree step");
  ocl::Kernel kernel;
  kernel.name = "binomial_node_dataflow";
  // Pure dataflow: no in-group synchronisation, so the body never suspends.
  kernel.body = [steps](ocl::WorkItemCtx& ctx,
                        const ocl::KernelArgs& args) -> ocl::WorkItemTask {
    // Argument layout (bound by the host program):
    //   0: S read buffer   1: V read buffer
    //   2: S write buffer  3: V write buffer
    //   4: option parameter slots
    //   5: per-node time-step constant buffer
    //   6: batch index     7: number of options in the workload
    auto s_read = ctx.global<double>(args.buffer(0));
    auto v_read = ctx.global<double>(args.buffer(1));
    auto s_write = ctx.global<double>(args.buffer(2));
    auto v_write = ctx.global<double>(args.buffer(3));
    auto params = ctx.global<double>(args.buffer(4));
    auto tsteps = ctx.global<std::int32_t>(args.buffer(5));
    const auto batch = args.i64(6);
    const auto num_options = args.i64(7);

    const std::size_t id = ctx.global_id();
    const auto t = static_cast<std::size_t>(tsteps.get(id));

    // Which option this level is processing this batch; pipeline bubbles
    // at startup/drain simply skip the node.
    const long long option = option_in_flight(
        batch, static_cast<long long>(t), static_cast<long long>(steps));
    if (option < 0 || option >= num_options) co_return;

    const std::size_t slot =
        static_cast<std::size_t>(option) % (steps + 1) * kParamStride;
    const double u = params.get(slot);
    const double rp = params.get(slot + 1);
    const double rq = params.get(slot + 2);
    const double strike = params.get(slot + 3);
    const double sign = params.get(slot + 4);
    const bool american = params.get(slot + 5) > 0.0;

    // Children were written by the next level in the previous batch (or by
    // the host, for the leaf region).
    const std::size_t child = down_child(id, t);
    const double s_child = s_read.get(child);
    const double v_down = v_read.get(child);
    const double v_up = v_read.get(child + 1);

    const double s = s_child * u;  // S(t,k) from the same-k child
    const double continuation = rp * v_up + rq * v_down;
    const double exercise = std::max(sign * (s - strike), 0.0);
    const double value = american ? std::max(exercise, continuation)
                                  : continuation;

    s_write.set(id, s);
    v_write.set(id, value);
  };
  return kernel;
}

KernelAHostProgram::KernelAHostProgram(ocl::Device& device, Config config)
    : device_(device), config_(config) {
  BINOPT_REQUIRE(config_.steps >= 1, "need at least one tree step");
}

KernelAResult KernelAHostProgram::run(
    const std::vector<finance::OptionSpec>& options) {
  BINOPT_REQUIRE(!options.empty(), "no options to price");
  const std::size_t n = config_.steps;
  const std::size_t nodes = interior_nodes(n);
  const std::size_t length = pingpong_length(n);
  const std::size_t num_options = options.size();

  const ocl::RuntimeStats before = device_.stats();

  ocl::Context context(device_);
  ocl::CommandQueue queue(context);

  ocl::Buffer* s_buf[2] = {
      &context.create_buffer_of<double>(length, ocl::MemFlags::kReadWrite,
                                        "S_ping"),
      &context.create_buffer_of<double>(length, ocl::MemFlags::kReadWrite,
                                        "S_pong")};
  ocl::Buffer* v_buf[2] = {
      &context.create_buffer_of<double>(length, ocl::MemFlags::kReadWrite,
                                        "V_ping"),
      &context.create_buffer_of<double>(length, ocl::MemFlags::kReadWrite,
                                        "V_pong")};
  ocl::Buffer& params = context.create_buffer_of<double>(
      (n + 1) * kParamStride, ocl::MemFlags::kReadOnly, "option_params");
  ocl::Buffer& tsteps = context.create_buffer_of<std::int32_t>(
      nodes, ocl::MemFlags::kReadOnly, "time_steps");

  // The per-node time-step constant buffer, written once (Section IV-A:
  // "they are stored in a constant buffer").
  {
    std::vector<std::int32_t> levels(nodes);
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t k = 0; k <= t; ++k) {
        levels[node_id(t, k)] = static_cast<std::int32_t>(t);
      }
    }
    queue.write<std::int32_t>(tsteps, levels);
  }

  const finance::BinomialPricer pricer(n, config_.convention);
  const ocl::Kernel kernel = make_kernel_a(n);
  const ocl::NDRange range{nodes, pick_local_size(nodes)};

  KernelAResult result;
  result.prices.assign(num_options, 0.0);
  result.work_items_per_batch = nodes;

  std::vector<double> readback(length);
  const std::size_t total_batches = num_options + n - 1;

  for (std::size_t b = 0; b < total_batches; ++b) {
    const std::size_t read_idx = b % 2;
    const std::size_t write_idx = 1 - read_idx;

    // (1) Initialise + (2) write the entering option's data.
    if (b < num_options) {
      const finance::OptionSpec& spec = options[b];
      const finance::LatticeParams lp =
          finance::LatticeParams::from(spec, n, config_.convention);
      const std::vector<double> leaf_s = pricer.leaf_assets_iterative(spec);
      std::vector<double> leaf_v(n + 1);
      for (std::size_t k = 0; k <= n; ++k) leaf_v[k] = spec.payoff(leaf_s[k]);

      queue.write<double>(*s_buf[read_idx], leaf_s, /*offset_elems=*/nodes);
      queue.write<double>(*v_buf[read_idx], leaf_v, /*offset_elems=*/nodes);

      const double slot_data[kParamStride] = {
          lp.up,
          lp.discount * lp.prob_up,
          lp.discount * lp.prob_down,
          spec.strike,
          spec.type == finance::OptionType::kCall ? 1.0 : -1.0,
          spec.style == finance::ExerciseStyle::kAmerican ? 1.0 : 0.0};
      queue.write<double>(params, std::span<const double>(slot_data),
                          (b % (n + 1)) * kParamStride);
    }

    // (3) Enqueue the kernel batch.
    ocl::KernelArgs args;
    args.set(0, s_buf[read_idx]);
    args.set(1, v_buf[read_idx]);
    args.set(2, s_buf[write_idx]);
    args.set(3, v_buf[write_idx]);
    args.set(4, &params);
    args.set(5, &tsteps);
    args.set(6, static_cast<std::int64_t>(b));
    args.set(7, static_cast<std::int64_t>(num_options));
    queue.enqueue_ndrange(kernel, args, range);

    // (4) Read results back. The paper's version reads one whole
    // ping-pong buffer per batch (the performance problem of Section
    // V-C); the modified variant reads only the completed option's value.
    if (config_.reduced_reads) {
      queue.read<double>(*v_buf[write_idx],
                         std::span<double>(readback.data(), 1));
    } else {
      queue.read<double>(*v_buf[write_idx], readback);
    }
    if (b + 1 >= n) {
      const std::size_t completed = b + 1 - n;
      if (completed < num_options) result.prices[completed] = readback[0];
    }
    ++result.batches;
  }

  result.stats = device_.stats().minus(before);
  return result;
}

}  // namespace binopt::kernels
