// chain_batch — seeded bursts of RD64/WR64 requests (20 % writes) to
// random cubes of a 4-cube chain, driven through the C API alone. Each
// burst is one hmcsim_send_batch at its seeded arrival cycle, so the loop
// is open in simulated time: a burst is submitted on schedule whether or
// not earlier ones have finished. Between arrivals, hmcsim_batch_advance
// drives outstanding batches and hmcsim_clock_until crosses the quiescent
// gaps, which the simulator fast-forwards. Reads target a preloaded
// pattern; every write goes to its own block, so both can be checked.
#include <array>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "capi/hmc_sim.h"
#include "replay.hpp"
#include "sim_util.hpp"
#include "spans.hpp"
#include "trace/trace.hpp"

namespace perfbench {
namespace {

using hmcsim::spec::Rqst;

constexpr std::uint32_t kCubes = 4;
constexpr std::uint64_t kBlockBytes = 64;
constexpr std::uint64_t kBlockWords = kBlockBytes / 8;
constexpr std::uint64_t kReadBase = 0x0010'0000;
constexpr std::uint64_t kReadBlocks = 4096;  ///< 256 KiB per cube.
constexpr std::uint64_t kWriteBase = 0x0400'0000;
constexpr std::uint32_t kBursts = 512;
constexpr std::uint32_t kBurstMin = 32, kBurstMax = 256;
constexpr std::uint64_t kGapMin = 500, kGapMax = 4000;  ///< Cycles.
constexpr std::uint32_t kSegment = 32;  ///< Bursts per timed segment.
constexpr std::uint32_t kTags = 2048;  ///< 11-bit tag space.

// The fault self-check: transient DRAM flips at a rate that makes some
// reads uncorrectable (poisoned) within the first bursts.
constexpr std::uint32_t kFaultPpm = 300'000;
constexpr std::uint64_t kFaultSeed = 0xFA17;
constexpr std::uint32_t kFaultBursts = 64;

[[nodiscard]] std::uint64_t pattern(std::uint32_t cube, std::uint64_t addr) {
  std::uint64_t z = (static_cast<std::uint64_t>(cube) << 56) ^ addr;
  z = (z ^ (z >> 31)) * 0x9E3779B97F4A7C15ULL;
  return z ^ (z >> 29);
}

struct Request {
  std::uint64_t addr = 0;
  std::uint32_t cube = 0;
  bool write = false;
  std::array<std::uint64_t, kBlockWords> data{};  ///< Write payload.
};

struct Burst {
  std::uint64_t arrival = 0;  ///< Simulated cycle of submission.
  std::uint32_t first = 0;    ///< Index of its first request.
  std::uint32_t count = 0;
};

/// A harvested response, checked after the timed phase.
struct Got {
  std::uint32_t req = 0;
  std::uint8_t errstat = 0;
  std::uint32_t words = 0;
  std::array<std::uint64_t, kBlockWords> data{};
};

class ChainBatch final : public Workload {
 public:
  explicit ChainBatch(const Options& o) {
    Rng rng(o.seed);
    std::array<std::uint64_t, kCubes> next_write{};
    std::uint64_t t = 0;
    for (std::uint32_t b = 0; b < kBursts; ++b) {
      t += kGapMin + rng.below(kGapMax - kGapMin + 1);
      Burst burst{t, static_cast<std::uint32_t>(reqs_.size()),
                  kBurstMin + static_cast<std::uint32_t>(
                                  rng.below(kBurstMax - kBurstMin + 1))};
      for (std::uint32_t i = 0; i < burst.count; ++i) {
        Request r;
        r.cube = static_cast<std::uint32_t>(rng.below(kCubes));
        r.write = rng.below(5) == 0;
        if (r.write) {
          r.addr = kWriteBase + kBlockBytes * next_write[r.cube]++;
          for (auto& w : r.data) {
            w = rng.next();
          }
        } else {
          r.addr = kReadBase + kBlockBytes * rng.below(kReadBlocks);
        }
        reqs_.push_back(r);
      }
      bursts_.push_back(burst);
    }
  }

  std::string params() const override {
    return R"({"cubes": 4, "topology": "chain", "config": "4Link-4GB", )"
           R"("api": "C batch", "bursts": 512, "burst_size": "32..256", )"
           R"("gap_cycles": "500..4000", "ops": "RD64 80%, WR64 20%", )"
           R"("read_region_bytes_per_cube": 262144, "loop": "open in simulated time"})";
  }

  Outcome pinned() const override {
    return {.cycles = 1178977,
            .responses = 75079,
            .latency_count = 75079,
            .latency_sum = 781284};
  }

  Iteration iterate(Tracer* tr, bool stage_stats) override {
    return run(tr, stage_stats, false, kBursts);
  }

  std::string self_check(Counts& counts) override {
    const Iteration it = run(nullptr, false, true, kFaultBursts);
    const double frac = static_cast<double>(it.failed) /
                        static_cast<double>(it.attempted);
    const double poison = static_cast<double>(poison_) /
                          static_cast<double>(it.attempted);
    counts["bench.fault_check.failed_frac"] = frac;
    counts["bench.fault_check.poison_frac"] = poison;
    if (it.failed == 0 || it.failed != poison_) {
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "fault self-check: failed_frac %.6f vs poison_returned "
                    "fraction %.6f",
                    frac, poison);
      return msg;
    }
    return {};
  }

  void replay(Tracer& tr, Counts& counts) override {
    std::vector<std::unique_ptr<hmcsim::mem::BackingStore>> stores;
    std::vector<std::uint64_t> region(kReadBlocks * kBlockWords);
    for (std::uint32_t c = 0; c < kCubes; ++c) {
      stores.push_back(
          std::make_unique<hmcsim::mem::BackingStore>(kReplayCapacity));
      for (std::uint64_t w = 0; w < region.size(); ++w) {
        region[w] = pattern(c, kReadBase + 8 * w);
      }
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(region.data());
      for (std::uint64_t off = 0; off < region.size() * 8; off += 4096) {
        replay_write(tr, *stores[c], kReadBase + off, {bytes + off, 4096}, 0);
      }
    }
    std::array<std::uint8_t, kBlockBytes> buf{};
    for (std::uint32_t i = 0; i < reqs_.size(); ++i) {
      const Request& r = reqs_[i];
      hmcsim::spec::RqstParams p;
      p.rqst = r.write ? Rqst::WR64 : Rqst::RD64;
      p.addr = r.addr;
      p.cub = static_cast<std::uint8_t>(r.cube);
      p.tag = static_cast<std::uint16_t>(i % kTags);
      if (r.write) {
        p.payload = r.data;
      }
      replay_build(tr, p, i + 1);
      if (r.write) {
        replay_write(tr, *stores[r.cube], r.addr,
                     {reinterpret_cast<const std::uint8_t*>(r.data.data()),
                      kBlockBytes},
                     i + 1);
      } else {
        replay_read(tr, *stores[r.cube], r.addr, buf, i + 1);
      }
    }
    double pages = 0;
    for (const auto& s : stores) {
      pages += static_cast<double>(s->resident_pages());
    }
    counts["mem.resident_pages"] = pages;
  }

 private:
  Iteration run(Tracer* tr, bool stage_stats, bool faults,
                std::uint32_t nbursts) {
    Iteration it;
    const auto t0 = Clock::now();
    hmc_sim_t* sim = nullptr;
    {
      Scope s(tr, Span::CapiInit);
      sim = faults ? hmcsim_init_faults(kCubes, 4, 4, 64, 64, 128, kFaultPpm,
                                        kFaultSeed, 0, 0)
                   : hmcsim_init(kCubes, 4, 4, 64, 64, 128);
    }
    if (sim == nullptr) {
      it.check_error = "hmcsim_init failed";
      return it;
    }
    for (std::uint32_t c = 0; c < kCubes; ++c) {
      for (std::uint64_t w = 0; w < kReadBlocks * kBlockWords; ++w) {
        const std::uint64_t addr = kReadBase + 8 * w;
        Scope s(tr, Span::CapiMemWrite);
        if (hmcsim_util_mem_write(sim, c, addr, pattern(c, addr)) != HMC_OK) {
          it.check_error = "pattern preload failed";
        }
      }
    }
    if (stage_stats) {
      (void)hmcsim_trace_level(
          sim, static_cast<std::uint32_t>(hmcsim::trace::Level::Journey));
    }
    auto lap_start = Clock::now();
    it.setup.push_back(seconds_between(t0, lap_start));

    const std::uint32_t nreqs =
        nbursts == kBursts ? static_cast<std::uint32_t>(reqs_.size())
                           : bursts_[nbursts].first;
    std::vector<Got> got;
    got.reserve(nreqs);
    std::vector<hmc_batch_rqst_t> batch;
    std::array<hmc_batch_rsp_t, 64> buf;
    struct Pending {
      hmc_ticket_t ticket;
      std::uint32_t first;
    };
    std::deque<Pending> open;

    // Harvest what `p` has completed; true once the ticket is retired.
    const auto harvest = [&](const Pending& p) {
      for (;;) {
        std::uint32_t n = static_cast<std::uint32_t>(buf.size());
        int rc;
        {
          Scope s(tr, Span::CapiPollBatch, p.ticket);
          rc = hmcsim_poll_batch(sim, p.ticket, buf.data(), &n);
        }
        for (std::uint32_t i = 0; i < n; ++i) {
          const hmc_batch_rsp_t& r = buf[i];
          Got g;
          // Tags run on with the request index, so they are unique among
          // overlapping batches (the session matches by link and tag).
          g.req = p.first + (r.tag + kTags - p.first % kTags) % kTags;
          g.errstat = r.errstat;
          g.words = r.payload_words;
          std::memcpy(g.data.data(), r.payload,
                      std::min<std::size_t>(r.payload_words, kBlockWords) * 8);
          got.push_back(g);
          it.latencies.push_back(r.latency);
        }
        if (rc != HMC_STALL) {
          return true;  // Retired (or unknown: its requests stay missing).
        }
        if (n < buf.size()) {
          return false;
        }
      }
    };
    // Drive outstanding batches up to `until`, oldest first.
    const auto drive = [&](std::uint64_t until) {
      while (!open.empty() && hmcsim_cycle(sim) < until) {
        {
          Scope s(tr, Span::CapiBatchAdvance, open.front().ticket);
          (void)hmcsim_batch_advance(sim, open.front().ticket,
                                     until - hmcsim_cycle(sim));
        }
        if (!harvest(open.front())) {
          break;
        }
        open.pop_front();
      }
    };

    const std::uint64_t start = hmcsim_cycle(sim);
    for (std::uint32_t b = 0; b < nbursts; ++b) {
      if (b != 0 && b % kSegment == 0) {
        lap(it.run, lap_start);
      }
      const Burst& burst = bursts_[b];
      drive(start + burst.arrival);
      const std::uint64_t now = hmcsim_cycle(sim);
      if (open.empty() && now < start + burst.arrival) {
        Scope s(tr, Span::CapiClockUntil);
        it.fast_forwarded += hmcsim_clock_until(sim, start + burst.arrival);
      }
      batch.resize(burst.count);
      for (std::uint32_t i = 0; i < burst.count; ++i) {
        const Request& r = reqs_[burst.first + i];
        batch[i] = {r.write ? static_cast<std::uint32_t>(HMC_WR64)
                            : static_cast<std::uint32_t>(HMC_RD64),
                    static_cast<std::uint8_t>(r.cube),
                    static_cast<std::uint16_t>((burst.first + i) % kTags),
                    r.addr,
                    r.write ? r.data.data() : nullptr,
                    r.write ? static_cast<std::uint32_t>(kBlockWords) : 0U};
      }
      hmc_ticket_t ticket = 0;
      int rc;
      {
        Scope s(tr, Span::CapiSendBatch);
        rc = hmcsim_send_batch(sim, batch.data(), burst.count, HMC_LINK_ANY,
                               &ticket);
        s.set_id(ticket);
      }
      if (rc == HMC_OK) {
        open.push_back({ticket, burst.first});
      }
    }
    drive(~0ULL);
    lap(it.run, lap_start);

    it.attempted = nreqs;
    it.outcome.cycles = hmcsim_cycle(sim) - start;
    it.outcome.responses = got.size();
    for (const std::uint64_t l : it.latencies) {
      it.outcome.latency_sum += l;
    }
    (void)hmcsim_stat_get(sim, "host.latency", &it.outcome.latency_count);
    read_stats(sim, it);
    if (stage_stats) {
      read_stage_means(sim, it);
    }
    check(sim, got, nreqs, it);
    if (faults) {
      poison_ = 0;
      for (std::uint32_t c = 0; c < kCubes; ++c) {
        std::uint64_t v = 0;
        const std::string path =
            "cube" + std::to_string(c) + ".ecc.poison_returned";
        if (hmcsim_stat_get(sim, path.c_str(), &v) == HMC_OK) {
          poison_ += v;
        }
      }
    }
    const auto teardown = Clock::now();
    {
      Scope s(tr, Span::CapiFree);
      hmcsim_free(sim);
    }
    it.run.push_back(seconds_between(teardown, Clock::now()));
    return it;
  }

  /// Every registry counter, through hmcsim_stat_list + hmcsim_stat_get.
  static void read_stats(hmc_sim_t* sim, Iteration& it) {
    std::string list(hmcsim_stat_list(sim, nullptr, 0) + 1, '\0');
    (void)hmcsim_stat_list(sim, list.data(), list.size());
    std::size_t pos = 0;
    while (pos < list.size() && list[pos] != '\0') {
      const std::size_t eol = list.find('\n', pos);
      const std::string line = list.substr(pos, eol - pos);
      pos = eol == std::string::npos ? list.size() : eol + 1;
      const std::size_t comma = line.rfind(',');
      if (comma == std::string::npos || line.substr(comma + 1) != "counter") {
        continue;
      }
      const std::string path = line.substr(0, comma);
      std::uint64_t v = 0;
      if (hmcsim_stat_get(sim, path.c_str(), &v) == HMC_OK) {
        it.stats[path] += v;
      }
    }
  }

  /// Mean host.stage.* waits from the stats JSON (the C API exposes
  /// histogram sums only there).
  static void read_stage_means(hmc_sim_t* sim, Iteration& it) {
    std::string json(hmcsim_stats_json(sim, nullptr, 0) + 1, '\0');
    (void)hmcsim_stats_json(sim, json.data(), json.size());
    const std::size_t stage = json.find("\"stage\"");
    for (const char* name : kStages) {
      double mean = 0;
      const std::size_t at =
          stage == std::string::npos
              ? std::string::npos
              : json.find(std::string("\"") + name + "\"", stage);
      const std::size_t m =
          at == std::string::npos ? at : json.find("\"mean\":", at);
      if (m != std::string::npos) {
        mean = std::strtod(json.c_str() + m + 7, nullptr);
      }
      it.stage_mean[name] = mean;
    }
  }

  /// Oracle: each read equals the preloaded pattern, each write answers
  /// cleanly and reads back through the back door; missing responses and
  /// error ERRSTATs fail.
  void check(hmc_sim_t* sim, const std::vector<Got>& got, std::uint32_t nreqs,
             Iteration& it) const {
    std::vector<std::uint8_t> seen(nreqs, 0);
    for (const Got& g : got) {
      if (g.req >= nreqs || seen[g.req] != 0) {
        ++it.failed;
        continue;
      }
      seen[g.req] = 1;
      const Request& r = reqs_[g.req];
      bool ok = g.errstat == 0 && g.words == (r.write ? 0 : kBlockWords);
      for (std::uint64_t w = 0; ok && !r.write && w < kBlockWords; ++w) {
        ok = g.data[w] == pattern(r.cube, r.addr + 8 * w);
      }
      for (std::uint64_t w = 0; ok && r.write && w < kBlockWords; ++w) {
        std::uint64_t v = 0;
        ok = hmcsim_util_mem_read(sim, r.cube, r.addr + 8 * w, &v) == HMC_OK &&
             v == r.data[w];
      }
      it.failed += ok ? 0 : 1;
    }
    for (const std::uint8_t s : seen) {
      it.failed += s == 0 ? 1 : 0;
    }
    if (it.failed != 0 && it.check_error.empty()) {
      it.check_error = "chain_batch responses disagree with the model";
    }
  }

  std::vector<Request> reqs_;
  std::vector<Burst> bursts_;
  std::uint64_t poison_ = 0;  ///< Of the last fault run.
};

}  // namespace

std::unique_ptr<Workload> make_chain_batch(const Options& o) {
  return std::make_unique<ChainBatch>(o);
}

}  // namespace perfbench
