// hmcbench — runs one workload and prints its metrics.
//
//   hmcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --plugins <dir> [--spans <csv>]
//
// --trace 0 repeats iterations for --seconds and reports the end-to-end
// metrics from per-segment medians over the iterations, with host times
// scaled to a nominal host speed (host_speed.hpp). --trace 1 reports the
// per-layer metrics: an untraced pass and a traced pass (their throughput
// ratio is the tracing overhead), counts read from the program after an
// untraced iteration, a stage-attribution iteration, and the layer
// replays. The last line of output is one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "host_speed.hpp"
#include "sim_util.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kMinIterations = 5;
constexpr std::size_t kMaxSpanRecords = 1U << 17;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Totals over one run: attempts, failures and the first error seen.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;
  bool have_first = false;
  Outcome first;
  std::string pin_error;  ///< Set when the first outcome missed its pin.

  /// Folds one iteration in, applying the determinism and pinning checks:
  /// an iteration whose simulated outcome differs from the first one's, or
  /// a run whose outcome misses the pin on the default seed, fails every
  /// request.
  void add(Iteration& it, const Workload& w, std::uint64_t seed) {
    if (!have_first) {
      have_first = true;
      first = it.outcome;
      if ((seed == kDefaultSeed || w.seed_independent()) &&
          !(it.outcome == w.pinned())) {
        char msg[256];
        std::snprintf(msg, sizeof msg,
                      "simulated outcome differs from the pinned one: "
                      "cycles=%llu responses=%llu latency_count=%llu "
                      "latency_sum=%llu",
                      static_cast<unsigned long long>(it.outcome.cycles),
                      static_cast<unsigned long long>(it.outcome.responses),
                      static_cast<unsigned long long>(it.outcome.latency_count),
                      static_cast<unsigned long long>(it.outcome.latency_sum));
        pin_error = msg;
      }
    }
    const std::string mismatch =
        it.outcome == first ? pin_error
                            : "simulated outcome changed between iterations";
    if (!mismatch.empty()) {
      it.failed = it.attempted;
      if (it.check_error.empty()) {
        it.check_error = mismatch;
      }
    }
    attempted += it.attempted;
    failed += it.failed;
    if (error.empty() && !it.check_error.empty()) {
      error = it.check_error;
    }
  }
};

double total(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// Host-time summary of many iterations of one workload. Each iteration's
/// host times are first scaled by the host speed measured around it (see
/// host_speed.hpp). Each segment is then taken at its median over the
/// iterations and the medians are summed, so the result is a median-based
/// time per iteration at the nominal host speed. Iterations whose segments
/// do not line up (an error path) fall back to whole totals.
class Timing {
 public:
  void add(const Iteration& it, double speed) {
    setup_.push_back(scaled(it.setup, speed));
    run_.push_back(scaled(it.run, speed));
    raw_run_.push_back(it.run);
    speed_.push_back(speed);
    verified_.push_back(static_cast<double>(
        it.attempted - std::min(it.failed, it.attempted)));
    cycles_.push_back(static_cast<double>(it.outcome.cycles));
  }
  [[nodiscard]] std::size_t iterations() const { return run_.size(); }
  [[nodiscard]] double setup_s() const { return sum_of_medians(setup_); }
  [[nodiscard]] double run_s() const { return sum_of_medians(run_); }
  [[nodiscard]] double pkts_per_s() const { return median(verified_) / run_s(); }
  [[nodiscard]] double cycles_per_s() const { return median(cycles_) / run_s(); }
  /// Median host speed over the iterations.
  [[nodiscard]] double speed() const { return median(speed_); }
  /// pkts_per_s from unscaled host times, for the report.
  [[nodiscard]] double raw_pkts_per_s() const {
    return median(verified_) / sum_of_medians(raw_run_);
  }

 private:
  static std::vector<double> scaled(std::vector<double> v, double speed) {
    for (double& x : v) {
      x *= speed;
    }
    return v;
  }
  static double sum_of_medians(const std::vector<std::vector<double>>& its) {
    std::vector<double> col(its.size());
    for (const auto& it : its) {
      if (it.size() != its.front().size()) {
        for (std::size_t i = 0; i < its.size(); ++i) {
          col[i] = total(its[i]);
        }
        return median(col);
      }
    }
    double sum = 0;
    for (std::size_t seg = 0; seg < its.front().size(); ++seg) {
      for (std::size_t i = 0; i < its.size(); ++i) {
        col[i] = its[i][seg];
      }
      sum += median(col);
    }
    return sum;
  }

  std::vector<std::vector<double>> setup_, run_, raw_run_;
  std::vector<double> speed_, verified_, cycles_;
};

/// Runs iterations until `seconds` have passed and at least `min_iters`
/// are done, timing the host-speed reference between iterations; `each`
/// sees every iteration with the host speed from the reference timings on
/// either side of it.
void repeat(Workload& w, Tracer* tr, HostSpeed& host, double seconds,
            std::size_t min_iters,
            const std::function<void(Iteration&, double)>& each) {
  const auto t0 = Clock::now();
  double before = host.slowdown();
  for (std::size_t n = 0;
       n < min_iters || seconds_between(t0, Clock::now()) < seconds; ++n) {
    Iteration it = w.iterate(tr, false);
    const double after = host.slowdown();
    each(it, HostSpeed::speed(before, after));
    before = after;
  }
}

/// Sum of the counters under `cube` (a path prefix) whose last segment is
/// `leaf` and whose second segment starts with `group`; an empty group
/// selects counters directly under a cube (cube{d}.<leaf>).
double sum_leaf(const StatSnapshot& s, std::string_view group,
                std::string_view leaf, std::string_view cube = "cube") {
  double total = 0;
  for (const auto& [path, v] : s) {
    const std::size_t first = path.find('.');
    const std::size_t last = path.rfind('.');
    if (!path.starts_with(cube) || first == std::string::npos ||
        std::string_view(path).substr(last + 1) != leaf) {
      continue;
    }
    const bool match = group.empty()
                           ? first == last
                           : first != last &&
                                 std::string_view(path).substr(first + 1)
                                     .starts_with(group);
    total += match ? static_cast<double>(v) : 0.0;
  }
  return total;
}

std::vector<Metric> layer_counts(const Iteration& it, const Counts& extra) {
  const StatSnapshot& s = it.stats;
  std::vector<Metric> m;
  const auto add = [&](const char* name, double v, const char* unit) {
    m.push_back({name, v, unit});
  };
  add("dev.link.rqst_flits", sum_leaf(s, "link", "rqst_flits"), "count");
  add("dev.link.rsp_flits", sum_leaf(s, "link", "rsp_flits"), "count");
  add("dev.link.send_stalls", sum_leaf(s, "link", "send_stalls"), "count");
  add("dev.xbar.rqst_stalls", sum_leaf(s, "xbar", "rqst_stalls"), "count");
  add("dev.xbar.rqst_bw_throttles", sum_leaf(s, "xbar", "rqst_bw_throttles"),
      "count");
  add("dev.xbar.rsp_stalls", sum_leaf(s, "xbar", "rsp_stalls"), "count");
  const double processed = sum_leaf(s, "quad", "rqsts_processed");
  add("dev.vault.rqsts_processed", processed, "count");
  add("dev.vault.rsp_stalls", sum_leaf(s, "quad", "rsp_stalls"), "count");
  add("dev.vault.bank_conflicts", sum_leaf(s, "quad", "bank_conflicts"),
      "count");
  add("dev.chain.forwarded_rqsts", sum_leaf(s, "", "forwarded_rqsts"), "count");
  add("dev.chain.forwarded_rsps", sum_leaf(s, "", "forwarded_rsps"), "count");
  // Per-vault totals: for mutex_sweep these add up the same vault over
  // every simulation of the sweep.
  double hottest = 0;
  for (const auto& [path, v] : s) {
    if (path.size() > 16 &&
        path.compare(path.size() - 16, 16, ".rqsts_processed") == 0) {
      hottest = std::max(hottest, static_cast<double>(v));
    }
  }
  add("dev.vault.hot_share", processed == 0 ? 0 : hottest / processed, "ratio");
  add("amo.executed", sum_leaf(s, "quad", "amo_executed"), "count");
  add("core.cmc_executed", sum_leaf(s, "quad", "cmc_executed"), "count");
  add("mem.resident_pages", extra.count("mem.resident_pages") != 0
                                ? extra.at("mem.resident_pages")
                                : 0,
      "count");
  const double cycles = static_cast<double>(it.outcome.cycles);
  add("sim.cycles", cycles, "cycles");
  add("core.trylock_per_acquire",
      it.extra.count("core.trylock_per_acquire") != 0
          ? it.extra.at("core.trylock_per_acquire")
          : 0,
      "ratio");
  add("sim.ff_ratio",
      cycles == 0 ? 0 : static_cast<double>(it.fast_forwarded) / cycles,
      "ratio");
  const double stalls = sum_leaf(s, "link", "send_stalls", "cube0.");
  const double accepted = sum_leaf(s, "link", "rqst_packets", "cube0.");
  add("sim.send_stall_ratio",
      stalls + accepted == 0 ? 0 : stalls / (stalls + accepted), "ratio");
  std::vector<std::uint64_t> lat = it.latencies;
  add("sim.latency_p50_cycles", static_cast<double>(percentile(lat, 50)),
      "cycles");
  add("sim.latency_p99_cycles", static_cast<double>(percentile(lat, 99)),
      "cycles");
  add("model.table6_err_pct",
      it.extra.count("model.table6_err_pct") != 0
          ? it.extra.at("model.table6_err_pct")
          : 0,
      "%");
  return m;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

int run(const std::string& name, const Options& opts, double seconds,
        bool trace, const std::string& spans_path) {
  std::unique_ptr<Workload> w;
  if (name == "mutex_sweep") {
    w = make_mutex_sweep(opts);
  } else if (name == "gups") {
    w = make_gups(opts);
  } else if (name == "stream_triad") {
    w = make_stream_triad(opts);
  } else if (name == "chain_batch") {
    w = make_chain_batch(opts);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 2;
  }
  std::printf("PARAMS %s\n", w->params().c_str());
  if (w->seed_independent()) {
    std::printf("# %s has no random input: every seed runs the same work\n",
                name.c_str());
  }

  Tally tally;
  Counts counts;
  std::vector<Metric> metrics;
  HostSpeed host;
  if (!trace) {
    Timing t;
    repeat(*w, nullptr, host, seconds, kMinIterations,
           [&](Iteration& it, double speed) {
             tally.add(it, *w, opts.seed);
             t.add(it, speed);
           });
    std::printf("# iterations=%zu host_speed=%.4f unscaled pkts_per_s=%.1f\n",
                t.iterations(), t.speed(), t.raw_pkts_per_s());
    metrics = {{"setup_s", t.setup_s(), "s"},
               {"pkts_per_s", t.pkts_per_s(), "1/s"},
               {"sim_cycles_per_s", t.cycles_per_s(), "1/s"}};
  } else {
    // Untraced pass: the reference throughput and the counts.
    Timing plain, traced;
    Iteration first;
    bool have_first = false;
    repeat(*w, nullptr, host, 0.3 * seconds, 2,
           [&](Iteration& it, double speed) {
             tally.add(it, *w, opts.seed);
             plain.add(it, speed);
             if (!have_first) {
               first = std::move(it);
               have_first = true;
             }
           });
    // Traced pass.
    Tracer tr(kMaxSpanRecords);
    double traced_s = 0;
    repeat(*w, &tr, host, 0.3 * seconds, 1, [&](Iteration& it, double speed) {
      tally.add(it, *w, opts.seed);
      traced.add(it, speed);
      traced_s += total(it.setup) + total(it.run);
    });
    const double own_share = (traced_s - tr.root_s()) / traced_s;
    // Stage attribution (observational: the simulation is unchanged).
    Iteration staged = w->iterate(nullptr, true);
    tally.add(staged, *w, opts.seed);
    w->replay(tr, counts);

    for (std::size_t i = 0; i < kSpanCount; ++i) {
      const SpanSummary s = tr.summary(static_cast<Span>(i));
      const std::string base = kSpanNames[i];
      metrics.push_back({base + ".calls", static_cast<double>(s.calls), "count"});
      metrics.push_back({base + ".self_s", s.self_s, "s"});
      metrics.push_back({base + ".p50_ns", static_cast<double>(s.p50_ns), "ns"});
      metrics.push_back({base + ".tail_ns", static_cast<double>(s.tail_ns), "ns"});
      std::printf("# span %-20s calls=%-9llu self=%.6fs p50=%lluns p%g=%lluns\n",
                  base.c_str(), static_cast<unsigned long long>(s.calls),
                  s.self_s, static_cast<unsigned long long>(s.p50_ns),
                  s.tail_pct, static_cast<unsigned long long>(s.tail_ns));
    }
    for (Metric& m : layer_counts(first, counts)) {
      metrics.push_back(std::move(m));
    }
    for (const char* stage : kStages) {
      metrics.push_back({std::string("sim.wait.") + stage,
                         staged.stage_mean[stage], "cycles"});
    }
    const double overhead = plain.pkts_per_s() / traced.pkts_per_s();
    std::printf("# untraced pass: %zu iterations, %.1f pkts/s; traced pass: "
                "%zu iterations, %.1f pkts/s\n",
                plain.iterations(), plain.pkts_per_s(), traced.iterations(),
                traced.pkts_per_s());
    metrics.push_back({"bench.driver_share", own_share, "ratio"});
    metrics.push_back({"bench.trace_overhead", overhead, "ratio"});
    metrics.push_back({"bench.host_speed", plain.speed(), "ratio"});
    if (!spans_path.empty() && !tr.write_csv(spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
    }
  }
  // Untimed self-checks of the failure accounting.
  const std::string self = w->self_check(counts);
  for (const auto& [k, v] : counts) {
    std::printf("# %s=%.9g\n", k.c_str(), v);
  }
  if (!self.empty()) {
    std::printf("# CHECK FAILED: %s\n", self.c_str());
  }
  if (!tally.error.empty()) {
    std::printf("# CHECK FAILED: %s\n", tally.error.c_str());
  }
  if (trace) {
    metrics.push_back({"failed_frac",
                       tally.attempted == 0
                           ? 1.0
                           : static_cast<double>(tally.failed) /
                                 static_cast<double>(tally.attempted),
                       "ratio"});
  } else {
    metrics.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
  }
  const bool correct = self.empty() && tally.error.empty() &&
                       tally.failed == 0 && tally.attempted > 0;
  print_json(correct, std::max<std::uint64_t>(tally.attempted, 1),
             tally.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload, spans;
  perfbench::Options opts;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = val == "1";
    } else if (key == "--plugins") {
      opts.plugin_dir = val;
    } else if (key == "--spans") {
      spans = val;
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return 2;
    }
  }
  if (workload.empty() || opts.plugin_dir.empty() || !(seconds > 0)) {
    std::fprintf(stderr,
                 "usage: hmcbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --plugins <dir> [--spans <csv>]\n");
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return perfbench::run(workload, opts, seconds, trace, spans);
}
