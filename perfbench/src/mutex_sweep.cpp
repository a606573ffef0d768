// mutex_sweep — the paper's Algorithm 1 over 2..100 threads on the
// 4Link-4GB and 8Link-8GB devices: 198 simulations run one after another,
// every thread contending for one lock at 0x4000. The CMC operations come
// from the shipped plugins through Simulator::load_cmc (the paper's
// hmc_load_cmc path). Closed loop: each simulated thread keeps one request
// outstanding and is served on link tid % links, scanned in tid order, so
// the run retires exactly like host::run_mutex_contention and must
// reproduce Table VI. Algorithm 1 has no random input: the workload is the
// same for every seed.
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "replay.hpp"
#include "sim_util.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using hmcsim::sim::Config;
using hmcsim::sim::Simulator;
using hmcsim::spec::Rqst;

constexpr std::uint64_t kLockAddr = 0x4000;
constexpr std::uint32_t kMinThreads = 2;
constexpr std::uint32_t kMaxThreads = 100;
constexpr std::uint64_t kWatchdogCycles = 1'000'000;

// EXPERIMENTS.md Table VI as this simulator reproduces it (4Link / 8Link),
// and the paper's own figures for the model-error metric.
constexpr std::uint64_t kMinCycles = 6;
constexpr std::array<std::uint64_t, 2> kWorstMax = {304, 304};
constexpr std::array<double, 2> kWorstAvg = {154.98, 154.86};
constexpr std::array<double, 2> kPaperMax = {392, 387};
constexpr std::array<double, 2> kPaperAvg = {226.48, 221.48};

enum class Phase : std::uint8_t { WaitLock, WaitTrylock, WaitUnlock, Done };

struct Thread {
  Phase phase = Phase::WaitLock;
  bool pending = false;  ///< Request waiting to enter the device.
  Rqst op = Rqst::CMC125;
  std::array<std::uint64_t, 2> payload{};
  std::uint64_t done_cycle = 0;
  std::uint32_t acquisitions = 0;
};

/// One recorded request for the layer replays: op and thread.
struct Issued {
  Rqst op;
  std::uint32_t tid;
};

struct SimResult {
  std::uint64_t min = 0, max = 0;
  double avg = 0;
  std::uint64_t requests = 0, failed = 0, trylocks = 0, acquisitions = 0;
};

class MutexSweep final : public Workload {
 public:
  explicit MutexSweep(const Options& o) : plugin_dir_(o.plugin_dir) {}

  std::string params() const override {
    return R"({"threads": "2..100", "configs": ["4Link-4GB", "8Link-8GB"], )"
           R"("simulations": 198, "lock_addr": "0x4000", )"
           R"("cmc": "load_cmc hmc_lock/hmc_trylock/hmc_unlock", )"
           R"("loop": "closed, one request per thread", "seed_independent": true})";
  }
  bool seed_independent() const override { return true; }

  Outcome pinned() const override {
    return {.cycles = 30972,
            .responses = 353496,
            .latency_count = 353496,
            .latency_sum = 1062330};
  }

  Iteration iterate(Tracer* tr, bool stage_stats) override {
    Iteration it;
    StageAcc stages;
    std::array<std::uint64_t, 2> worst_max{}, min_cycles{~0ULL, ~0ULL};
    std::array<double, 2> worst_avg{};
    std::uint64_t trylocks = 0, acquisitions = 0;
    record_ = tr != nullptr && issued_.empty();
    for (std::uint32_t n = kMinThreads; n <= kMaxThreads; ++n) {
      for (std::size_t c = 0; c < 2; ++c) {
        Config cfg = c == 0 ? Config::hmc_4link_4gb() : Config::hmc_8link_8gb();
        cfg.stage_stats = stage_stats;
        const SimResult r = run_one(cfg, n, tr, it, stages);
        worst_max[c] = std::max(worst_max[c], r.max);
        worst_avg[c] = std::max(worst_avg[c], r.avg);
        min_cycles[c] = std::min(min_cycles[c], r.min);
        trylocks += r.trylocks;
        acquisitions += r.acquisitions;
        it.attempted += r.requests;
        it.failed += r.failed;
      }
    }
    record_ = false;
    stages.finish(it);

    double err = 0;
    bool table_ok = true;
    for (std::size_t c = 0; c < 2; ++c) {
      table_ok = table_ok && min_cycles[c] == kMinCycles &&
                 worst_max[c] == kWorstMax[c] &&
                 std::fabs(worst_avg[c] - kWorstAvg[c]) < 0.005;
      err = std::max(err, 100 * std::fabs(static_cast<double>(worst_max[c]) -
                                          kPaperMax[c]) / kPaperMax[c]);
      err = std::max(err, 100 * std::fabs(worst_avg[c] - kPaperAvg[c]) /
                              kPaperAvg[c]);
    }
    if (!table_ok) {
      char msg[200];
      std::snprintf(msg, sizeof msg,
                    "Table VI mismatch: MIN %llu/%llu MAX %llu/%llu "
                    "AVG %.2f/%.2f",
                    static_cast<unsigned long long>(min_cycles[0]),
                    static_cast<unsigned long long>(min_cycles[1]),
                    static_cast<unsigned long long>(worst_max[0]),
                    static_cast<unsigned long long>(worst_max[1]),
                    worst_avg[0], worst_avg[1]);
      it.check_error = msg;
      it.failed = it.attempted;
    }
    it.extra["core.trylock_per_acquire"] =
        acquisitions == 0 ? 0.0
                          : static_cast<double>(trylocks) /
                                static_cast<double>(acquisitions);
    it.extra["model.table6_err_pct"] = err;
    return it;
  }

  void replay(Tracer& tr, Counts& counts) override {
    // Each recorded request is built as a packet and its lock access is
    // executed functionally against a standalone store.
    hmcsim::mem::BackingStore store(kReplayCapacity);
    std::uint64_t id = 0;
    for (const Issued& r : issued_) {
      ++id;
      const std::array<std::uint64_t, 2> payload = {r.tid + 1ULL, 0};
      hmcsim::spec::RqstParams p;
      p.rqst = r.op;
      p.addr = kLockAddr;
      p.tag = static_cast<std::uint16_t>(r.tid);
      p.payload = payload;
      p.flits_override = 2;
      replay_build(tr, p, id);
      std::array<std::uint64_t, 2> lock{};
      replay_read(tr, store, kLockAddr,
                  {reinterpret_cast<std::uint8_t*>(lock.data()), 16}, id);
      const bool take = r.op != Rqst::CMC127 && lock[0] == 0;
      const bool release = r.op == Rqst::CMC127 && lock[1] == r.tid + 1ULL;
      if (take || release) {
        lock = take ? std::array<std::uint64_t, 2>{1, r.tid + 1ULL}
                    : std::array<std::uint64_t, 2>{0, lock[1]};
        replay_write(tr, store, kLockAddr,
                     {reinterpret_cast<const std::uint8_t*>(lock.data()), 16},
                     id);
      }
    }
    counts["mem.resident_pages"] = static_cast<double>(store.resident_pages());
  }

 private:
  SimResult run_one(const Config& cfg, std::uint32_t n, Tracer* tr,
                    Iteration& it, StageAcc& stages) {
    SimResult res;
    const auto t0 = Clock::now();
    std::unique_ptr<Simulator> sim;
    {
      Scope s(tr, Span::SimCreate);
      if (!Simulator::create(cfg, sim).ok()) {
        it.check_error = "Simulator::create failed";
        return res;
      }
    }
    for (const char* so : {"hmc_lock.so", "hmc_trylock.so", "hmc_unlock.so"}) {
      Scope s(tr, Span::SimLoadCmc);
      if (!sim->load_cmc(plugin_dir_ + "/" + so).ok()) {
        it.check_error = std::string("load_cmc failed: ") + so;
        return res;
      }
    }
    {
      const std::array<std::uint8_t, 16> zero{};
      Scope s(tr, Span::SimMemWrite);
      (void)sim->mem_write(0, kLockAddr, zero);
    }
    const auto t1 = Clock::now();

    const std::uint32_t links = cfg.num_links;
    std::vector<Thread> th(n);
    std::uint32_t done = 0;
    std::uint64_t responses = 0;
    const std::uint64_t start = sim->cycle();
    const std::uint64_t ff0 = sim->fast_forwarded_cycles();

    const auto try_send = [&](std::uint32_t tid) {
      Thread& t = th[tid];
      hmcsim::spec::RqstParams p;
      p.rqst = t.op;
      p.addr = kLockAddr;
      p.tag = static_cast<std::uint16_t>(tid);
      p.payload = t.payload;
      hmcsim::Status st;
      {
        Scope s(tr, Span::SimSend, tid + 1);
        st = sim->send(p, tid % links);
      }
      if (st.ok()) {
        t.pending = false;
      } else if (!st.stalled()) {
        t.pending = false;  // Hard error: the request never gets a response.
        ++res.failed;
      }
    };
    const auto issue = [&](std::uint32_t tid, Rqst op) {
      Thread& t = th[tid];
      t.op = op;
      t.payload = {tid + 1ULL, 0};  // 0 means "lock free".
      t.pending = true;
      ++res.requests;
      res.trylocks += op == Rqst::CMC126 ? 1 : 0;
      if (record_) {
        issued_.push_back({op, tid});
      }
      try_send(tid);
    };
    const auto on_rsp = [&](std::uint32_t tid, const hmcsim::sim::Response& r) {
      Thread& t = th[tid];
      const auto payload = r.pkt.payload();
      const std::uint64_t word0 = payload.empty() ? 0 : payload[0];
      bool ok = r.pkt.errstat() == 0 && payload.size() == 2;
      switch (t.phase) {
        case Phase::WaitLock:
        case Phase::WaitTrylock:
          if (t.phase == Phase::WaitLock ? word0 != 0 : word0 == tid + 1ULL) {
            ++t.acquisitions;
            t.phase = Phase::WaitUnlock;
            issue(tid, Rqst::CMC127);
          } else {
            t.phase = Phase::WaitTrylock;
            issue(tid, Rqst::CMC126);
          }
          break;
        case Phase::WaitUnlock:
          ok = ok && word0 == 1;  // The owner's unlock must succeed.
          t.phase = Phase::Done;
          t.done_cycle = sim->cycle();
          ++done;
          break;
        case Phase::Done:
          ok = false;  // A response nobody asked for.
          break;
      }
      res.failed += ok ? 0 : 1;
    };

    for (std::uint32_t tid = 0; tid < n; ++tid) {
      issue(tid, Rqst::CMC125);
    }
    hmcsim::sim::Response rsp;
    while (done < n && sim->cycle() - start <= kWatchdogCycles) {
      bool any_pending = false;
      for (std::uint32_t tid = 0; tid < n; ++tid) {
        if (th[tid].pending) {
          try_send(tid);
          any_pending |= th[tid].pending;
        }
      }
      std::uint64_t next = Simulator::kNoEvent;
      if (!any_pending) {
        Scope s(tr, Span::SimNextEvent);
        next = sim->next_event_cycle();
      }
      if (next != Simulator::kNoEvent && next > sim->cycle() + 1) {
        Scope s(tr, Span::SimClockUntil);
        sim->clock_until(next);
      } else {
        Scope s(tr, Span::SimClock);
        sim->clock();
      }
      for (std::uint32_t link = 0; link < links; ++link) {
        while (recv_span(tr, *sim, link, rsp, [](const auto& r) {
          return r.pkt.tag() + 1ULL;
        })) {
          const std::uint32_t tid = rsp.pkt.tag();
          ++responses;
          it.latencies.push_back(rsp.latency);
          if (tid < n) {
            on_rsp(tid, rsp);
          } else {
            ++res.failed;
          }
        }
      }
    }

    // Outcome and counts before teardown; they are not part of run time.
    const auto t2 = Clock::now();
    const std::uint64_t cycles = sim->cycle() - start;
    it.outcome.cycles += cycles;
    it.fast_forwarded += sim->fast_forwarded_cycles() - ff0;
    it.outcome.latency_count += sim->latency_histogram().count();
    it.outcome.latency_sum += sim->latency_histogram().sum();
    add_stats(it.stats, *sim);
    if (cfg.stage_stats) {
      stages.add(*sim);
    }
    // Oracle: every thread finished and acquired exactly once, the lock is
    // free at the end.
    std::array<std::uint64_t, 2> lock{1, 0};
    (void)sim->mem_read(0, kLockAddr,
                        {reinterpret_cast<std::uint8_t*>(lock.data()), 16});
    bool sim_ok = done == n && lock[0] == 0;
    std::uint64_t sum = 0;
    res.min = ~0ULL;
    for (const Thread& t : th) {
      sim_ok = sim_ok && t.acquisitions == 1;
      res.acquisitions += t.acquisitions;
      const std::uint64_t c = t.done_cycle - start;
      res.min = std::min(res.min, c);
      res.max = std::max(res.max, c);
      sum += c;
    }
    res.avg = static_cast<double>(sum) / static_cast<double>(n);
    if (!sim_ok) {
      res.failed = res.requests;
      if (it.check_error.empty()) {
        it.check_error = "mutex run with " + std::to_string(n) +
                         " threads: lock not free or a thread did not "
                         "acquire exactly once";
      }
    }
    it.outcome.responses += responses;
    const auto t3 = Clock::now();
    {
      Scope s(tr, Span::SimDestroy);
      sim.reset();
    }
    const auto t4 = Clock::now();
    it.setup.push_back(seconds_between(t0, t1));
    it.run.push_back(seconds_between(t1, t2) + seconds_between(t3, t4));
    return res;
  }

  std::string plugin_dir_;
  bool record_ = false;
  std::vector<Issued> issued_;
};

}  // namespace

std::unique_ptr<Workload> make_mutex_sweep(const Options& o) {
  return std::make_unique<MutexSweep>(o);
}

}  // namespace perfbench
