// bench.hpp — shared vocabulary of the end-to-end benchmark.
//
// A workload generates its inputs from the seed once, then runs any number
// of identical iterations. One iteration sets up a fresh simulator (timed
// as setup), drives the traffic and tears the simulator down (timed as
// run), and checks every result against the benchmark's own functional
// model (untimed). The benchmark reaches the program only through
// sim::Simulator, the C API and public functions of spec, amo and mem.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// SplitMix64: the benchmark's own input generator, so generated inputs
/// never depend on code under measurement.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1) with 53 random bits.
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// The simulated outcome of one iteration. A pure function of the inputs:
/// it must repeat exactly across iterations, and for the default seed it
/// must equal the outcome pinned in the workload.
struct Outcome {
  std::uint64_t cycles = 0;         ///< Simulated cycles advanced.
  std::uint64_t responses = 0;      ///< Responses received.
  std::uint64_t latency_count = 0;  ///< host.latency sample count.
  std::uint64_t latency_sum = 0;    ///< host.latency sum (cycles).
  bool operator==(const Outcome&) const = default;
};

/// Per-layer counts read from the program after one iteration, keyed by
/// their metric name (deterministic for a given seed).
using Counts = std::map<std::string, double>;

/// Registry counter snapshot (path -> value) of one simulator.
using StatSnapshot = std::map<std::string, std::uint64_t, std::less<>>;

/// What one iteration measured and checked.
struct Iteration {
  /// Host time in consecutive segments, the same segments every
  /// iteration. Setup is create + CMC load + back-door preload; run is
  /// traffic + teardown. Segment times are compared across iterations by
  /// median, so interference during one segment does not move the result.
  std::vector<double> setup, run;
  std::uint64_t attempted = 0;  ///< Requests the workload issued.
  std::uint64_t failed = 0;     ///< Missing, errored or wrong responses.
  std::uint64_t fast_forwarded = 0;  ///< Cycles jumped, not stepped.
  Outcome outcome;
  std::vector<std::uint64_t> latencies;  ///< Per-response latency.
  StatSnapshot stats;  ///< Registry counters summed over every simulator.
  Counts extra;        ///< Workload-specific per-layer counts.
  /// Mean host.stage.* waits, filled only by a stage-stats iteration.
  std::map<std::string, double> stage_mean;
  std::string check_error;  ///< First oracle disagreement, if any.
};

/// The seed whose simulated outcome each workload pins.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::uint64_t seed = kDefaultSeed;
  std::string plugin_dir;  ///< Where hmc_lock.so and friends live.
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Workload parameters as a JSON object (recorded with every result).
  [[nodiscard]] virtual std::string params() const = 0;
  /// One full iteration. `tr` (nullable) records spans around calls into
  /// the program; `stage_stats` turns on per-stage wait attribution.
  [[nodiscard]] virtual Iteration iterate(Tracer* tr, bool stage_stats) = 0;
  /// Replay the generated inputs through spec, amo and mem alone.
  virtual void replay(Tracer& tr, Counts& counts) = 0;
  /// Pinned outcome for kDefaultSeed.
  [[nodiscard]] virtual Outcome pinned() const = 0;
  /// True when the workload's inputs do not depend on the seed.
  [[nodiscard]] virtual bool seed_independent() const { return false; }
  /// Extra untimed self-checks run once per invocation; returns an error
  /// description or "".
  [[nodiscard]] virtual std::string self_check(Counts& counts) {
    (void)counts;
    return {};
  }
};

std::unique_ptr<Workload> make_mutex_sweep(const Options& o);
std::unique_ptr<Workload> make_gups(const Options& o);
std::unique_ptr<Workload> make_stream_triad(const Options& o);
std::unique_ptr<Workload> make_chain_batch(const Options& o);

/// Marks the end of a timed segment: appends the time since `last` to
/// `segs` and restarts `last`.
inline void lap(std::vector<double>& segs, Clock::time_point& last) {
  const Clock::time_point now = Clock::now();
  segs.push_back(seconds_between(last, now));
  last = now;
}

/// Exact percentile (nearest rank) of `v`, p in [0, 100]; sorts `v`.
[[nodiscard]] std::uint64_t percentile(std::vector<std::uint64_t>& v,
                                       double p);

}  // namespace perfbench
