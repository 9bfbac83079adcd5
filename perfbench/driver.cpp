// perfbench driver: runs ONE named workload of the repository benchmark
// through the library's public entry points and reports its metrics.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--quote-rate <quotes/s>]
//
// Workloads (see perfbench/README.md for the rationale of each):
//   curve_tick    closed loop: one desk thread re-prices a 2000-option curve
//                 per tick on a 2-worker CPU-reference service
//   quote_stream  open loop: single-quote submit() at a fixed rate from a
//                 skewed universe larger than the quote cache
//   device_curve  closed loop: a 32-option curve per tick on kernel IV.B
//                 (simulated FPGA), one worker, one compute unit
//   greeks_book   closed loop: a 256-option book through GreeksService
//
// The timed phase runs in kSetups segments, each on a freshly set-up service
// (construction plus warm-up, timed as setup_s). Client threads and service
// threads run on disjoint CPUs (see Placement). With --trace 0 the driver
// times the workload and reports the end-to-end metrics. With --trace 1 it
// records spans around the calls it makes on every other unit of work
// (tick, book or quote), inside that unit's timed interval so that
// harness.trace_overhead prices the recording, and afterwards replays the
// workload's own inputs through each lower layer's entry point
// (BatchPricer::price_into, PricingAccelerator::run_prices,
// KernelBHostProgram::run, lattice_front_greeks) to build the per-layer
// ledger. Every served price and Greeks value is compared bitwise against a
// direct reference computed before the timed window; any mismatch makes the
// exit code 1.
//
// The last line of stdout is one JSON object; perfbench/run.py reads it.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/accelerator.h"
#include "core/service/greeks_service.h"
#include "core/service/pricing_service.h"
#include "finance/binomial_batch.h"
#include "finance/greeks.h"
#include "finance/workload.h"
#include "kernels/kernel_b.h"
#include "ocl/platform.h"

extern char** environ;

namespace {

namespace core = binopt::core;
namespace fin = binopt::finance;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Measurement helpers

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The CPUs this process may run on (its affinity mask), in order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Restricts the calling thread to `cpus`; threads it starts inherit them.
void pin_this_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Threads of this process as the kernel counts them (Linux), or 0.
std::size_t observed_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::strtoull(line.c_str() + 8, nullptr, 10);
  }
  return 0;
}

/// Exact nearest-rank percentile of raw samples (q in (0, 1]).
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const fin::Greeks& a, const fin::Greeks& b) {
  return same_bits(a.price, b.price) && same_bits(a.delta, b.delta) &&
         same_bits(a.gamma, b.gamma) && same_bits(a.theta, b.theta) &&
         same_bits(a.vega, b.vega) && same_bits(a.rho, b.rho);
}

/// Lattice nodes one CRR price computes: (N+1)(N+2)/2 for an N-step tree.
double lattice_nodes(std::size_t steps) {
  return static_cast<double>((steps + 1) * (steps + 2) / 2);
}

/// Calls each of fns in turn until `budget_s` has passed (at least
/// `min_rounds` rounds) and returns the median wall seconds of one call of
/// each. Interleaving the calls lets slow drift of the host hit all alike.
std::vector<double> median_call_seconds(const std::vector<std::function<void()>>& fns,
                                        double budget_s, std::size_t min_rounds = 5) {
  std::vector<std::vector<double>> samples(fns.size());
  const Clock::time_point start = Clock::now();
  for (std::size_t round = 0;
       round < min_rounds || seconds_between(start, Clock::now()) < budget_s; ++round) {
    for (std::size_t i = 0; i < fns.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      fns[i]();
      samples[i].push_back(seconds_between(t0, Clock::now()));
    }
  }
  std::vector<double> medians;
  for (auto& s : samples) medians.push_back(median(std::move(s)));
  return medians;
}

/// FNV-1a over raw bytes: a digest of the generated inputs, so the
/// self-test can show that a seed fixes the inputs and a new seed changes
/// them.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  }
  void add(const std::vector<fin::OptionSpec>& specs) {
    for (const fin::OptionSpec& s : specs) {
      const double fields[] = {s.spot, s.strike, s.rate, s.dividend, s.volatility,
                               s.maturity};
      add(fields, sizeof fields);
      const int kinds[] = {static_cast<int>(s.type), static_cast<int>(s.style)};
      add(kinds, sizeof kinds);
    }
  }
};

// ---------------------------------------------------------------------------
// Spans: kept in memory per recording thread, merged and summarised at the
// end.

struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
};

class SpanLog {
public:
  void add(const char* name, Clock::time_point start, Clock::time_point end) {
    spans_.push_back({name, start, end});
  }
  void merge(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(1e6 * seconds_between(s.start, s.end));
    }
    return out;
  }
private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kCurve, kStream, kGreeks };

struct Workload {
  std::string name;
  Kind kind = Kind::kCurve;
  core::Target target = core::Target::kCpuReference;
  std::size_t steps = 0;
  std::size_t workers = 1;
  std::size_t cache_capacity = 0;
  std::size_t compute_units = 0;  ///< pinned CU count (device targets)
  std::size_t unit_options = 0;   ///< options per tick / book (closed loops)
  std::size_t cycle = 0;          ///< distinct ticks / books replayed in turn
  std::size_t client_threads = 1;
  const char* unit = "tick";
};

// Quote-stream shape: the universe is 4x the cache, drawn with a skewed
// (u^2) index distribution so hot quotes hit while the tail misses/evicts.
constexpr std::size_t kStreamUniverse = 16384;
constexpr std::size_t kStreamCache = 4096;
constexpr std::size_t kStreamWarmQuotes = 8192;
constexpr std::chrono::milliseconds kStreamDeadline{1000};
constexpr std::size_t kSetups = 11;

bool find_workload(const std::string& name, Workload& w) {
  w = Workload{};
  w.name = name;
  if (name == "curve_tick") {
    // 16 ticks x 2000 distinct keys cycle through an 8192-entry LRU: every
    // key is evicted before its tick comes round again, so no lookup hits.
    w.kind = Kind::kCurve;
    w.steps = 256;
    w.workers = 2;
    w.cache_capacity = 8192;
    w.unit_options = 2000;
    w.cycle = 16;
  } else if (name == "quote_stream") {
    w.kind = Kind::kStream;
    w.steps = 64;
    w.workers = 1;
    w.cache_capacity = kStreamCache;
    w.client_threads = 2;  // generator + collector
    w.unit = "quote";
    w.unit_options = 1;
  } else if (name == "device_curve") {
    w.kind = Kind::kCurve;
    w.target = core::Target::kFpgaKernelB;
    w.steps = 64;
    w.workers = 1;
    w.compute_units = 1;
    w.unit_options = 32;
    w.cycle = 16;
  } else if (name == "greeks_book") {
    // 16 books x 256 options x 4 tagged legs cycle through a 1024-entry
    // LRU, so every leg is priced. A book this size fills several batches,
    // so how the worker happens to split one book barely moves its time.
    w.kind = Kind::kGreeks;
    w.steps = 128;
    w.workers = 1;
    w.cache_capacity = 1024;
    w.unit_options = 256;
    w.cycle = 16;
    w.unit = "book";
  } else {
    return false;
  }
  return true;
}

/// Service threads plus client threads plus simulated compute-unit threads
/// (a one-CU device runs its work-groups inline on the worker).
std::size_t thread_total(const Workload& w) {
  const std::size_t cu_threads = w.compute_units > 1 ? w.workers * w.compute_units : 0;
  return w.client_threads + w.workers + cu_threads;
}

/// Each client thread gets a CPU of its own and the service's threads share
/// the rest. Otherwise the scheduler's wake-affine placement can stack a
/// client and the worker it wakes on one CPU for seconds at a time, which
/// serialises greeks_book's host lattice front with its bump legs and
/// doubles its latency (see perfbench/README.md, Noise).
struct Placement {
  std::vector<int> client;   ///< one CPU per client thread; [0] is this thread
  std::vector<int> service;  ///< inherited by the service's worker threads
};

Placement place_threads(const Workload& w, const std::vector<int>& cpus) {
  const auto split = cpus.begin() + static_cast<std::ptrdiff_t>(w.client_threads);
  return {{cpus.begin(), split}, {split, cpus.end()}};
}

struct Inputs {
  std::vector<std::vector<fin::OptionSpec>> units;  ///< closed loops
  std::vector<fin::OptionSpec> universe;            ///< quote_stream
  std::vector<std::uint32_t> stream;                ///< quote_stream send order
  std::vector<std::uint32_t> warm;                  ///< quote_stream warm-up
  std::uint64_t digest = 0;
};

/// Skewed draw over [0, n): index = floor(n * u^2).
std::uint32_t skewed_index(binopt::SplitMix64& rng, std::size_t n) {
  const double u = rng.uniform01();
  return static_cast<std::uint32_t>(
      std::min<double>(static_cast<double>(n) * u * u, static_cast<double>(n - 1)));
}

Inputs make_inputs(const Workload& w, std::uint64_t seed, double seconds,
                   double quote_rate) {
  Inputs in;
  Digest digest;
  binopt::SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + 0x5eedull);
  if (w.kind == Kind::kCurve) {
    // The spot follows a seeded walk; the curve shape is the paper's.
    double spot = 100.0 * std::exp(0.05 * rng.normal());
    for (std::size_t k = 0; k < w.cycle; ++k) {
      spot *= std::exp(0.002 * rng.normal());
      in.units.push_back(fin::make_curve_batch(w.unit_options, spot));
      digest.add(in.units.back());
    }
  } else if (w.kind == Kind::kGreeks) {
    for (std::size_t k = 0; k < w.cycle; ++k) {
      in.units.push_back(fin::make_random_batch(w.unit_options, rng()));
      digest.add(in.units.back());
    }
  } else {
    in.universe = fin::make_random_batch(kStreamUniverse, rng());
    digest.add(in.universe);
    const auto quotes = static_cast<std::size_t>(std::llround(quote_rate * seconds));
    in.stream.resize(quotes);
    for (auto& idx : in.stream) idx = skewed_index(rng, kStreamUniverse);
    in.warm.resize(kStreamWarmQuotes);
    for (auto& idx : in.warm) idx = skewed_index(rng, kStreamUniverse);
    digest.add(in.stream.data(), in.stream.size() * sizeof(std::uint32_t));
    digest.add(in.warm.data(), in.warm.size() * sizeof(std::uint32_t));
  }
  in.digest = digest.h;
  return in;
}

/// Direct references, computed before anything is timed: prices from a
/// PricingAccelerator run on the workload's target and step count, Greeks
/// from finance::binomial_greeks.
struct Reference {
  std::vector<std::vector<double>> unit_prices;
  std::vector<std::vector<fin::Greeks>> unit_greeks;
  std::vector<double> universe_prices;
};

core::PricingAccelerator::Config accelerator_config(const Workload& w) {
  core::PricingAccelerator::Config cfg;
  cfg.target = w.target;
  cfg.steps = w.steps;
  cfg.compute_rmse = false;
  cfg.compute_units = w.compute_units;
  return cfg;
}

Reference make_reference(const Workload& w, const Inputs& in) {
  Reference ref;
  core::PricingAccelerator direct(accelerator_config(w));
  if (w.kind == Kind::kCurve) {
    for (const auto& unit : in.units) {
      ref.unit_prices.emplace_back(unit.size());
      direct.run_prices(unit.data(), unit.size(), ref.unit_prices.back().data());
    }
  } else if (w.kind == Kind::kGreeks) {
    for (const auto& unit : in.units) {
      auto& greeks = ref.unit_greeks.emplace_back();
      for (const auto& spec : unit) greeks.push_back(fin::binomial_greeks(spec, w.steps));
    }
  } else {
    ref.universe_prices.resize(in.universe.size());
    direct.run_prices(in.universe.data(), in.universe.size(), ref.universe_prices.data());
  }
  return ref;
}

// ---------------------------------------------------------------------------
// Set-up: service construction until the warm-up pass has completed.

struct Served {
  std::unique_ptr<core::PricingService> service;
  std::unique_ptr<core::GreeksService> greeks;
};

struct Tally {
  std::size_t attempted = 0;
  std::size_t delivered = 0;  ///< correct and on time
  std::size_t failed = 0;     ///< errors other than timeouts and sheds
  std::size_t timed_out = 0;
  std::size_t shed = 0;
  std::size_t mismatched = 0;
};

core::ServiceConfig service_config(const Workload& w) {
  core::ServiceConfig cfg;
  cfg.targets.assign(w.workers, w.target);
  cfg.steps = w.steps;
  cfg.cache_capacity = w.cache_capacity;
  cfg.compute_units = w.compute_units;
  return cfg;
}

/// Prices one closed-loop unit and counts it into `tally`.
void run_unit(const Workload& w, Served& served, const std::vector<fin::OptionSpec>& unit,
              std::size_t ref_index, const Reference& ref, std::vector<double>& out,
              Tally& tally) {
  tally.attempted += unit.size();
  try {
    if (w.kind == Kind::kGreeks) {
      const std::vector<core::GreeksQuote> quotes = served.greeks->greeks_batch_blocking(unit);
      for (std::size_t i = 0; i < unit.size(); ++i) {
        if (same_bits(quotes[i].greeks, ref.unit_greeks[ref_index][i])) {
          ++tally.delivered;
        } else {
          ++tally.mismatched;
        }
      }
    } else {
      served.service->price_batch_blocking(unit.data(), unit.size(), out.data());
      for (std::size_t i = 0; i < unit.size(); ++i) {
        if (same_bits(out[i], ref.unit_prices[ref_index][i])) {
          ++tally.delivered;
        } else {
          ++tally.mismatched;
        }
      }
    }
  } catch (const core::ServiceTimeoutError&) {
    tally.timed_out += unit.size();
  } catch (const core::ServiceOverloadError&) {
    tally.shed += unit.size();
  } catch (const std::exception&) {
    tally.failed += unit.size();
  }
}

/// Resolves one quote future into `tally`; returns true when it was
/// delivered correctly.
bool collect_quote(std::future<core::Quote>& fut, double ref_price, Tally& tally) {
  try {
    const core::Quote q = fut.get();
    if (same_bits(q.price, ref_price)) {
      ++tally.delivered;
      return true;
    }
    ++tally.mismatched;
  } catch (const core::ServiceTimeoutError&) {
    ++tally.timed_out;
  } catch (const core::ServiceOverloadError&) {
    ++tally.shed;
  } catch (const std::exception&) {
    ++tally.failed;
  }
  return false;
}

Served set_up(const Workload& w, const Inputs& in, const Reference& ref,
              const Placement& place, Tally& warm) {
  Served s;
  // The workers start in the constructor and inherit this thread's CPUs.
  pin_this_thread(place.service);
  s.service = std::make_unique<core::PricingService>(service_config(w));
  pin_this_thread({place.client[0]});
  if (w.kind == Kind::kGreeks) s.greeks = std::make_unique<core::GreeksService>(*s.service);
  if (w.kind == Kind::kStream) {
    // Fill the cache: the warm-up quotes in full batches.
    std::vector<fin::OptionSpec> specs;
    for (std::uint32_t idx : in.warm) specs.push_back(in.universe[idx]);
    std::vector<double> out(specs.size());
    s.service->price_batch_blocking(specs.data(), specs.size(), out.data(), kStreamDeadline);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      warm.attempted += 1;
      if (!same_bits(out[i], ref.universe_prices[in.warm[i]])) ++warm.mismatched;
    }
  } else {
    // Warm-up prices unit 0; the timed loop continues the cycle at unit 1.
    std::vector<double> out(w.unit_options);
    run_unit(w, s, in.units[0], 0, ref, out, warm);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Timed phase

struct Timed {
  Tally tally;
  std::vector<double> latency_ms;   ///< per tick / book / quote
  std::vector<double> send_lag_ms;  ///< quote_stream generator lateness
  std::size_t units = 0;
  std::size_t threads_seen = 0;  ///< process threads mid-run
  double wall_s = 0.0;
  double cpu_s = 0.0;
  // Latency summed over untraced [0] and traced [1] units. With tracing on,
  // odd units are traced, so drift of the host hits both halves alike; a
  // traced unit's latency includes recording its span.
  double latency_sum_ms[2] = {0.0, 0.0};
  std::size_t latency_count[2] = {0, 0};
  core::service::ServiceStats stats;  ///< delta over the timed phase
  SpanLog spans;

  void add_latency(double ms, bool traced) {
    latency_ms.push_back(ms);
    latency_sum_ms[traced] += ms;
    ++latency_count[traced];
  }

  /// Folds one segment of the timed phase into the run's totals.
  void merge(const Timed& seg) {
    tally.attempted += seg.tally.attempted;
    tally.delivered += seg.tally.delivered;
    tally.failed += seg.tally.failed;
    tally.timed_out += seg.tally.timed_out;
    tally.shed += seg.tally.shed;
    tally.mismatched += seg.tally.mismatched;
    latency_ms.insert(latency_ms.end(), seg.latency_ms.begin(), seg.latency_ms.end());
    send_lag_ms.insert(send_lag_ms.end(), seg.send_lag_ms.begin(), seg.send_lag_ms.end());
    units += seg.units;
    threads_seen = std::max(threads_seen, seg.threads_seen);
    wall_s += seg.wall_s;
    cpu_s += seg.cpu_s;
    for (int k = 0; k < 2; ++k) {
      latency_sum_ms[k] += seg.latency_sum_ms[k];
      latency_count[k] += seg.latency_count[k];
    }
    stats += seg.stats;
    spans.merge(seg.spans);
  }
};

Timed run_closed(const Workload& w, const Inputs& in, const Reference& ref, Served& served,
                 double seconds, bool trace) {
  Timed r;
  r.latency_ms.reserve(1 << 16);
  std::vector<double> out(w.unit_options);
  const char* call = w.kind == Kind::kGreeks ? "greeks_batch_blocking" : "price_batch_blocking";
  const core::service::ServiceStats before = served.service->stats();
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stop = t0 + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(seconds));
  Clock::time_point end = t0;
  for (std::size_t k = 1; end < stop; ++k, ++r.units) {
    const std::size_t index = k % w.cycle;
    const bool traced = trace && r.units % 2 == 1;
    const Clock::time_point start = Clock::now();
    run_unit(w, served, in.units[index], index, ref, out, r.tally);
    end = Clock::now();
    if (traced) {
      r.spans.add(call, start, end);
      end = Clock::now();
    }
    r.add_latency(1e3 * seconds_between(start, end), traced);
  }
  r.wall_s = seconds_between(t0, end);
  r.cpu_s = process_cpu_seconds() - cpu0;
  r.threads_seen = observed_threads();
  r.stats = served.service->stats().minus(before);
  return r;
}

/// Open loop: a generator thread submits quote i at t0 + i/rate (never
/// earlier) and publishes its future; this thread collects in send order.
/// Latency runs from the scheduled send time to the collected result.
Timed run_stream(const Inputs& in, const Reference& ref, Served& served,
                 const Placement& place, double rate, bool trace, std::size_t first,
                 std::size_t n) {
  Timed r;
  const std::uint32_t* quotes = in.stream.data() + first;
  struct Slot {
    std::future<core::Quote> fut;
    Clock::time_point due;
  };
  std::vector<Slot> slots(n);
  std::vector<double> lag_ms(n);
  std::atomic<std::size_t> published{0};
  SpanLog generator_spans;
  core::PricingService& service = *served.service;

  const core::service::ServiceStats before = service.stats();
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  std::thread generator([&] {
    pin_this_thread({place.client[1]});
    for (std::size_t i = 0; i < n; ++i) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(i) / rate));
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      slots[i].due = due;
      try {
        slots[i].fut = service.submit(in.universe[quotes[i]], kStreamDeadline);
      } catch (...) {
        // A refused submit is a failed quote; the collector counts it.
        std::promise<core::Quote> refused;
        refused.set_exception(std::current_exception());
        slots[i].fut = refused.get_future();
      }
      if (trace && i % 2 == 1) generator_spans.add("submit", sent, Clock::now());
      lag_ms[i] = 1e3 * seconds_between(due, sent);
      published.store(i + 1, std::memory_order_release);
      published.notify_one();
    }
  });

  r.latency_ms.reserve(n);
  Clock::time_point last = t0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t seen = published.load(std::memory_order_acquire); seen <= i;
         seen = published.load(std::memory_order_acquire)) {
      published.wait(seen, std::memory_order_acquire);
    }
    const Clock::time_point taken = Clock::now();
    if (i == n / 2) r.threads_seen = observed_threads();
    r.tally.attempted += 1;
    const bool ok = collect_quote(slots[i].fut, ref.universe_prices[quotes[i]], r.tally);
    last = Clock::now();
    const bool traced = trace && i % 2 == 1;
    if (traced) {
      r.spans.add("collect", taken, last);
      last = Clock::now();
    }
    const double latency = 1e3 * seconds_between(slots[i].due, last);
    r.add_latency(latency, traced);
    if (ok && latency > static_cast<double>(kStreamDeadline.count())) {
      // Resolved, but later than the client's deadline: not goodput.
      --r.tally.delivered;
      ++r.tally.timed_out;
    }
  }
  generator.join();
  r.units = n;
  r.wall_s = seconds_between(t0, last);
  r.cpu_s = process_cpu_seconds() - cpu0;
  r.stats = service.stats().minus(before);
  r.send_lag_ms = std::move(lag_ms);
  r.spans.merge(generator_spans);
  return r;
}

// ---------------------------------------------------------------------------
// Per-layer replays (traced runs only): the workload's own inputs through
// each lower layer's public entry point, timed as medians.

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

constexpr double kReplayBudgetS = 0.3;

/// The specs the finance replay prices for one unit of work: the curve, the
/// book's four bump legs per option, or a 256-quote slice of the universe.
std::vector<fin::OptionSpec> finance_replay_specs(const Workload& w, const Inputs& in) {
  if (w.kind == Kind::kStream) {
    return {in.universe.begin(), in.universe.begin() + 256};
  }
  if (w.kind == Kind::kCurve) return in.units[1];
  std::vector<fin::OptionSpec> legs;
  for (const auto& spec : in.units[1]) {
    const fin::GreeksBumpSet set = fin::GreeksBumpSet::from(spec, w.steps);
    legs.insert(legs.end(), {set.vega_up, set.vega_down, set.rho_up, set.rho_down});
  }
  return legs;
}

void replay_layers(const Workload& w, const Inputs& in, const Reference& ref,
                   const Timed& r, Metrics& m, Tally& replay_tally) {
  const core::service::ServiceStats& st = r.stats;
  const double units = static_cast<double>(std::max<std::size_t>(r.units, 1));
  const double delivered = static_cast<double>(std::max<std::size_t>(r.tally.delivered, 1));
  // finance: BatchPricer::price_into over one unit's specs, and (Greeks)
  // lattice_front_greeks over one book.
  const std::vector<fin::OptionSpec> fspecs = finance_replay_specs(w, in);
  const double nodes_per_option = lattice_nodes(w.steps);
  fin::BatchPricer pricer(w.steps);
  std::vector<double> fout(fspecs.size());
  const double price_into_s = median_call_seconds({[&] {
    pricer.price_into(fspecs.data(), fspecs.size(), fout.data());
  }}, kReplayBudgetS)[0];
  m["finance.ns_per_node"] = {
      1e9 * price_into_s / (nodes_per_option * static_cast<double>(fspecs.size())), "ns"};
  const double specs_per_unit =
      w.kind == Kind::kStream ? 1.0 : static_cast<double>(fspecs.size());
  m["finance.lattice_nodes"] = {nodes_per_option * specs_per_unit, "count"};
  double front_us = 0.0;
  if (w.kind == Kind::kGreeks) {
    const auto& book = in.units[1];
    volatile double sink = 0.0;
    const double s = median_call_seconds({[&] {
      for (const auto& spec : book) sink = sink + fin::lattice_front_greeks(spec, w.steps).price;
    }}, kReplayBudgetS)[0];
    front_us = 1e6 * s / static_cast<double>(book.size());
  }
  m["finance.front_us_per_request"] = {front_us, "us"};

  // accelerator: run_prices at the service's mean batch fill, interleaved
  // with price_into on the same specs.
  const double fill = st.batch_fill.mean();
  const std::size_t batch = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::llround(fill)), 1, fspecs.size());
  core::PricingAccelerator acc(accelerator_config(w));
  std::vector<double> aout(batch);
  const std::vector<double> pair = median_call_seconds(
      {[&] { acc.run_prices(fspecs.data(), batch, aout.data()); },
       [&] { pricer.price_into(fspecs.data(), batch, fout.data()); }},
      kReplayBudgetS);
  const double run_prices_s = pair[0];
  m["accelerator.run_prices_us_per_batch"] = {1e6 * run_prices_s, "us"};
  m["accelerator.dispatch_share"] = {(run_prices_s - pair[1]) / run_prices_s, "ratio"};
  m["accelerator.replay_batch"] = {static_cast<double>(batch), "count"};

  // ocl: KernelBHostProgram::run on a reference-platform FPGA device
  // pinned to the workload's compute units (device workloads only).
  const bool device = w.target == core::Target::kFpgaKernelB;
  double wg_per_s = 0.0, us_per_barrier = 0.0;
  binopt::ocl::RuntimeStats per_tick{};
  if (device) {
    auto platform = binopt::ocl::Platform::make_reference_platform();
    binopt::ocl::Device& fpga = platform->device_by_kind(binopt::ocl::DeviceKind::kFpga);
    fpga.set_compute_units(w.compute_units);
    binopt::kernels::KernelBHostProgram::Config kcfg;
    kcfg.steps = w.steps;
    kcfg.mode = binopt::kernels::MathMode::kFpgaApproxPow;
    binopt::kernels::KernelBHostProgram program(fpga, kcfg);
    // Exact counts: one run per tick of the cycle, checked against the
    // reference prices.
    for (std::size_t k = 0; k < in.units.size(); ++k) {
      const binopt::kernels::KernelBResult res = program.run(in.units[k]);
      per_tick += res.stats;
      for (std::size_t i = 0; i < res.prices.size(); ++i) {
        replay_tally.attempted += 1;
        if (!same_bits(res.prices[i], ref.unit_prices[k][i])) ++replay_tally.mismatched;
      }
    }
    binopt::ocl::RuntimeStats one{};
    const double s =
        median_call_seconds({[&] { one = program.run(in.units[1]).stats; }}, kReplayBudgetS)[0];
    wg_per_s = static_cast<double>(one.work_groups_executed) / s;
    us_per_barrier = 1e6 * s / static_cast<double>(one.barriers_executed);
  }
  const double ticks = static_cast<double>(std::max<std::size_t>(in.units.size(), 1));
  const double tick_options = static_cast<double>(w.unit_options);
  m["ocl.work_groups_per_s"] = {wg_per_s, "1/s"};
  m["ocl.us_per_barrier"] = {us_per_barrier, "us"};
  m["ocl.barriers_executed"] = {static_cast<double>(per_tick.barriers_executed) / ticks, "count"};
  m["ocl.work_items_executed"] = {static_cast<double>(per_tick.work_items_executed) / ticks,
                                  "count"};
  m["ocl.work_groups_executed"] = {static_cast<double>(per_tick.work_groups_executed) / ticks,
                                   "count"};
  m["ocl.kernels_enqueued"] = {static_cast<double>(per_tick.kernels_enqueued) / ticks, "count"};
  m["ocl.global_bytes_per_option"] = {
      static_cast<double>(per_tick.total_global_bytes()) / (ticks * tick_options), "B"};
  m["ocl.host_bytes_per_option"] = {
      static_cast<double>(per_tick.total_pcie_bytes()) / (ticks * tick_options), "B"};

  // service: stats() deltas over the timed phase, plus the CPU time the
  // accelerator replay does not account for.
  const double accel_us_per_option = 1e6 * run_prices_s / static_cast<double>(batch);
  const double priced = static_cast<double>(st.options_priced);
  m["service.self_us_per_option"] = {
      (1e6 * r.cpu_s - priced * accel_us_per_option) / delivered, "us"};
  const std::vector<double> submit_us = r.spans.durations_us("submit");
  m["service.submit_us_p50"] = {submit_us.empty() ? 0.0 : median(submit_us), "us"};
  m["service.queue_wait_us_mean"] = {st.queue_wait_ns.mean() / 1e3, "us"};
  m["service.request_latency_us_mean"] = {st.request_latency_ns.mean() / 1e3, "us"};
  m["service.admission_block_us_mean"] = {st.admission_block_ns.mean() / 1e3, "us"};
  m["service.batch_fill_mean"] = {fill, "count"};
  m["service.batches_launched"] = {static_cast<double>(st.batches_launched) / units,
                                   "count/unit"};
  m["service.retries"] = {static_cast<double>(st.retries), "count"};
  m["service.timed_out"] = {static_cast<double>(st.requests_timed_out), "count"};
  m["service.shed"] = {static_cast<double>(st.requests_shed_normal + st.requests_shed_batch),
                       "count"};

  // cache
  const double lookups = static_cast<double>(st.cache_hits + st.cache_misses);
  m["cache.hit_ratio"] = {st.cache_hit_rate(), "ratio"};
  m["cache.lookups"] = {lookups / units, "count/unit"};
  m["cache.evictions"] = {static_cast<double>(st.cache_evictions) / units, "count/unit"};
}

// ---------------------------------------------------------------------------
// Output

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Removes every BINOPT_* variable from the environment so no runtime knob
/// (compute units, SIMD, router, shedding, ring size, tracing, faults,
/// analysis) leaks into a run. Returns the names cleared.
std::vector<std::string> clear_runtime_knobs() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    if (entry.rfind("BINOPT_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  return names;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double quote_rate = 0.0;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      a.trace = std::string(val) == "1";
    } else if (key == "--quote-rate") {
      a.quote_rate = std::strtod(val, nullptr);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

int run(const Args& args) {
  const std::vector<std::string> cleared = clear_runtime_knobs();
  Workload w;
  if (!find_workload(args.workload, w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (w.kind == Kind::kStream && !(args.quote_rate > 0.0)) {
    std::fprintf(stderr, "perfbench: quote_stream needs --quote-rate > 0\n");
    return 2;
  }
  const std::size_t threads = thread_total(w);
  const std::vector<int> allowed = allowed_cpus();
  const std::size_t cpus = allowed.size();
  std::printf("config: workload=%s seed=%llu seconds=%g trace=%d simd=%s steps=%zu "
              "workers=%zu compute_units=%zu threads=%zu nproc=%zu cleared_env=%zu\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, fin::BatchPricer::simd_enabled() ? "avx2" : "scalar",
              w.steps, w.workers, w.compute_units, threads, cpus, cleared.size());
  for (const std::string& name : cleared) std::printf("config: cleared %s\n", name.c_str());
  if (threads > cpus) {
    std::fprintf(stderr, "perfbench: %zu threads exceed nproc=%zu\n", threads, cpus);
    return 2;
  }
  const Placement place = place_threads(w, allowed);
  auto cpu_list = [](const std::vector<int>& cpus) {
    std::string out;
    for (int c : cpus) {
      if (!out.empty()) out += ',';
      out += std::to_string(c);
    }
    return out;
  };
  std::printf("config: cpus client=%s service=%s\n", cpu_list(place.client).c_str(),
              cpu_list(place.service).c_str());

  const Inputs in = make_inputs(w, args.seed, args.seconds, args.quote_rate);
  const Reference ref = make_reference(w, in);

  // The timed phase is split into kSetups segments, each on a freshly set-up
  // service: setup_s is the median set-up, and its samples are spread over
  // the run like the timed work, so a slow spell of the host weighs on both
  // alike instead of on every set-up at once.
  Timed r;
  std::vector<double> setup_s;
  Tally warm;
  std::size_t greeks_requests = 0;
  std::size_t greeks_legs = 0;
  for (std::size_t i = 0; i < kSetups; ++i) {
    // Hand the heap the previous service freed back to the system, so every
    // segment starts from the same footprint: otherwise fragmentation left by
    // each torn-down service lifts peak RSS in 1 MB steps at random segments.
    malloc_trim(0);
    const Clock::time_point t0 = Clock::now();
    Served served = set_up(w, in, ref, place, warm);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    const std::size_t first = in.stream.size() * i / kSetups;
    const std::size_t last = in.stream.size() * (i + 1) / kSetups;
    r.merge(w.kind == Kind::kStream
                ? run_stream(in, ref, served, place, args.quote_rate, args.trace, first,
                             last - first)
                : run_closed(w, in, ref, served, args.seconds / kSetups, args.trace));
    if (served.greeks) {
      greeks_requests += served.greeks->stats().greeks_requests;
      greeks_legs += served.greeks->stats().greeks_legs;
    }
  }
  std::printf("setup:");
  for (double v : setup_s) std::printf(" %.4f", v);
  std::printf(" s\n");
  if (r.threads_seen > cpus) {
    std::fprintf(stderr, "perfbench: %zu threads ran, nproc=%zu\n", r.threads_seen, cpus);
    return 2;
  }
  const double rss = peak_rss_mb();

  Tally replay;
  Metrics m;
  const double opts_per_s = static_cast<double>(r.tally.delivered) / r.wall_s;
  m["setup_s"] = {median(setup_s), "s"};
  m["options_per_s"] = {opts_per_s, "1/s"};
  m["latency_p50_ms"] = {percentile(r.latency_ms, 0.50), "ms"};
  m["latency_p90_ms"] = {percentile(r.latency_ms, 0.90), "ms"};
  m["cpu_us_per_option"] = {1e6 * r.cpu_s / static_cast<double>(std::max<std::size_t>(
                                                  r.tally.delivered, 1)),
                            "us"};
  m["peak_rss_mb"] = {rss, "MB"};
  const std::size_t samples = r.latency_ms.size();
  // The highest percentile with at least ten samples beyond it.
  if (samples >= 1000) m["latency_p99_ms"] = {percentile(r.latency_ms, 0.99), "ms"};
  m["harness.latency_samples"] = {static_cast<double>(samples), "count"};

  if (args.trace) {
    replay_layers(w, in, ref, r, m, replay);
    // Greeks fan-out: legs per request over the service's lifetime (exactly
    // 4), batches per request over the timed phase.
    m["greeks.legs_per_request"] = {
        greeks_requests ? static_cast<double>(greeks_legs) /
                              static_cast<double>(greeks_requests)
                        : 0.0,
        "count"};
    m["greeks.batches_per_request"] = {
        greeks_requests ? static_cast<double>(r.stats.batches_launched) /
                              static_cast<double>(std::max<std::size_t>(r.tally.attempted, 1))
                        : 0.0,
        "count"};
    m["harness.send_lag_p99_ms"] = {percentile(r.send_lag_ms, 0.99), "ms"};
    m["harness.threads"] = {static_cast<double>(r.threads_seen), "count"};
    // Untraced over traced mean unit latency: below 1 when tracing costs.
    const double untraced_ms = r.latency_sum_ms[0] / static_cast<double>(r.latency_count[0]);
    const double traced_ms = r.latency_sum_ms[1] / static_cast<double>(r.latency_count[1]);
    m["harness.trace_overhead"] = {untraced_ms / traced_ms, "ratio"};
  }

  const Tally& t = r.tally;
  const std::size_t mismatched = t.mismatched + warm.mismatched + replay.mismatched;
  const std::size_t failed = t.failed + t.timed_out + t.shed + t.mismatched;
  const double failed_share =
      static_cast<double>(failed) / static_cast<double>(std::max<std::size_t>(t.attempted, 1));
  std::printf("timed: %zu %ss, %zu options attempted, %zu delivered, %zu failed, %zu timed "
              "out, %zu shed, %zu mismatched (warm-up %zu, replay %zu)\n",
              r.units, w.unit, t.attempted, t.delivered, t.failed, t.timed_out, t.shed,
              t.mismatched, warm.mismatched, replay.mismatched);
  std::printf("failed_share = %.6g (of %zu attempted)\n", failed_share, t.attempted);
  for (const auto& [name, metric] : m) {
    std::printf("%-40s %18.6f %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }

  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(in.digest));
  std::string json = "{\"workload\":\"" + w.name + "\",\"correct\":" +
                     (mismatched == 0 ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(t.attempted) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"failed_share\":" + json_number(failed_share) +
                     ",\"input_digest\":\"" + digest +
                     "\",\"cleared_env\":" + std::to_string(cleared.size()) +
                     ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    json += (first ? "\"" : ",\"") + name + "\":{\"value\":" + json_number(metric.value) +
            ",\"unit\":\"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return mismatched == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--quote-rate <quotes/s>]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
