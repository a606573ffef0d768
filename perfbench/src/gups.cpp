// gups — seeded XOR16 atomic updates (HPCC RandomAccess done in memory)
// over a preloaded 32 MiB table on one 4Link-4GB cube with bank conflicts
// modelled. The table is far larger than the backing store's one-page MRU
// cache and a host L2, so nearly every update resolves a different page.
// Closed loop: a window of updates stays in flight, one per slot; slot s
// uses tag s and link s % 4.
#include <array>
#include <cstring>
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

constexpr std::uint64_t kTableBytes = 32ULL << 20;
constexpr std::uint64_t kTableWords = kTableBytes / 8;
constexpr std::uint64_t kTableBase = 0;
constexpr std::uint64_t kUpdates = 1ULL << 18;
constexpr std::uint32_t kWindow = 256;
constexpr std::uint64_t kSegment = kUpdates / 16;  ///< Updates per timed segment.
constexpr std::uint64_t kPreloadChunk = 4096;
constexpr std::uint64_t kWatchdogCycles = 100'000'000;

struct Update {
  std::uint64_t addr;                    ///< 16-byte block address.
  std::array<std::uint64_t, 2> payload;  ///< XOR operand.
};

class Gups final : public Workload {
 public:
  explicit Gups(const Options& o) {
    Rng rng(o.seed);
    table_.resize(kTableWords);
    for (auto& w : table_) {
      w = rng.next();
    }
    updates_.resize(kUpdates);
    expected_ = table_;
    for (Update& u : updates_) {
      const std::uint64_t v = rng.next();
      const std::uint64_t idx = v & (kTableWords - 1);
      u.addr = kTableBase + (idx / 2) * 16;
      u.payload = {(idx & 1) != 0 ? 0 : v, (idx & 1) != 0 ? v : 0};
      expected_[idx] ^= v;
    }
  }

  std::string params() const override {
    return R"({"config": "4Link-4GB", "model_bank_conflicts": true, )"
           R"("table_bytes": 33554432, "updates": 262144, "op": "XOR16", )"
           R"("window": 256, "loop": "closed"})";
  }

  Outcome pinned() const override {
    return {.cycles = 5665,
            .responses = 262144,
            .latency_count = 262144,
            .latency_sum = 1447731};
  }

  Iteration iterate(Tracer* tr, bool stage_stats) override {
    Iteration it;
    Config cfg = Config::hmc_4link_4gb();
    cfg.model_bank_conflicts = true;
    cfg.stage_stats = stage_stats;

    const auto t0 = Clock::now();
    std::unique_ptr<Simulator> sim;
    {
      Scope s(tr, Span::SimCreate);
      if (!Simulator::create(cfg, sim).ok()) {
        it.check_error = "Simulator::create failed";
        return it;
      }
    }
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(table_.data());
    for (std::uint64_t off = 0; off < kTableBytes; off += kPreloadChunk) {
      Scope s(tr, Span::SimMemWrite);
      if (!sim->mem_write(0, kTableBase + off, {bytes + off, kPreloadChunk})
               .ok()) {
        it.check_error = "table preload failed";
      }
    }
    auto lap_start = Clock::now();
    it.setup.push_back(seconds_between(t0, lap_start));

    const std::uint32_t links = cfg.num_links;
    std::array<std::uint64_t, kWindow> slot_update{};  // update index
    std::array<bool, kWindow> pending{};
    std::uint64_t cursor = 0, done = 0, responses = 0;
    it.latencies.reserve(kUpdates);
    const auto try_send = [&](std::uint32_t slot) {
      const Update& u = updates_[slot_update[slot]];
      hmcsim::spec::RqstParams p;
      p.rqst = Rqst::XOR16;
      p.addr = u.addr;
      p.tag = static_cast<std::uint16_t>(slot);
      p.payload = u.payload;
      hmcsim::Status st;
      {
        Scope s(tr, Span::SimSend, slot_update[slot] + 1);
        st = sim->send(p, slot % links);
      }
      if (st.ok()) {
        pending[slot] = false;
      } else if (!st.stalled()) {
        pending[slot] = false;
        ++it.failed;
        ++done;  // Never answered; count it and move on.
      }
    };
    const auto issue = [&](std::uint32_t slot) {
      if (cursor < kUpdates) {
        slot_update[slot] = cursor++;
        pending[slot] = true;
        try_send(slot);
      }
    };

    const std::uint64_t start = sim->cycle();
    for (std::uint32_t slot = 0; slot < kWindow; ++slot) {
      issue(slot);
    }
    hmcsim::sim::Response rsp;
    while (done < kUpdates && sim->cycle() - start <= kWatchdogCycles) {
      for (std::uint32_t slot = 0; slot < kWindow; ++slot) {
        if (pending[slot]) {
          try_send(slot);
        }
      }
      {
        Scope s(tr, Span::SimClock);
        sim->clock();
      }
      for (std::uint32_t link = 0; link < links; ++link) {
        while (recv_span(tr, *sim, link, rsp, [&](const auto& r) {
          return r.pkt.tag() < kWindow ? slot_update[r.pkt.tag()] + 1 : 0;
        })) {
          const std::uint32_t slot = rsp.pkt.tag();
          ++responses;
          it.latencies.push_back(rsp.latency);
          if (slot >= kWindow) {
            ++it.failed;
            continue;
          }
          if (rsp.pkt.errstat() != 0 || rsp.pkt.payload().size() != 2) {
            ++it.failed;
          }
          if (++done % kSegment == 0) {
            lap(it.run, lap_start);
          }
          issue(slot);
        }
      }
    }
    lap(it.run, lap_start);
    it.attempted = kUpdates;
    it.failed += kUpdates - done;  // Lost to the watchdog.
    it.outcome.cycles = sim->cycle() - start;
    it.outcome.responses = responses;
    it.outcome.latency_count = sim->latency_histogram().count();
    it.outcome.latency_sum = sim->latency_histogram().sum();
    it.fast_forwarded = sim->fast_forwarded_cycles();
    add_stats(it.stats, *sim);
    if (stage_stats) {
      StageAcc acc;
      acc.add(*sim);
      acc.finish(it);
    }
    check_table(*sim, it);
    const auto teardown = Clock::now();
    {
      Scope s(tr, Span::SimDestroy);
      sim.reset();
    }
    it.run.push_back(seconds_between(teardown, Clock::now()));
    return it;
  }

  void replay(Tracer& tr, Counts& counts) override {
    hmcsim::mem::BackingStore store(kReplayCapacity);
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(table_.data());
    for (std::uint64_t off = 0; off < kTableBytes; off += kPreloadChunk) {
      replay_write(tr, store, kTableBase + off, {bytes + off, kPreloadChunk}, 0);
    }
    std::uint64_t id = 0;
    for (const Update& u : updates_) {
      ++id;
      hmcsim::spec::RqstParams p;
      p.rqst = Rqst::XOR16;
      p.addr = u.addr;
      p.tag = static_cast<std::uint16_t>(id % kWindow);
      p.payload = u.payload;
      replay_build(tr, p, id);
      // The vault's atomic, then the same read-modify-write as plain
      // store accesses (which XORs again: only the cost matters here).
      replay_amo(tr, store, Rqst::XOR16, u.addr, u.payload, id);
      std::array<std::uint64_t, 2> v{};
      replay_read(tr, store, u.addr,
                  {reinterpret_cast<std::uint8_t*>(v.data()), 16}, id);
      v[0] ^= u.payload[0];
      v[1] ^= u.payload[1];
      replay_write(tr, store, u.addr,
                   {reinterpret_cast<const std::uint8_t*>(v.data()), 16}, id);
    }
    counts["mem.resident_pages"] = static_cast<double>(store.resident_pages());
  }

 private:
  /// Oracle: the whole table must equal the flat-array replay of the XOR
  /// stream. Every update aimed at a wrong block counts as failed.
  void check_table(const Simulator& sim, Iteration& it) {
    readback_.resize(kTableWords);
    if (!sim.mem_read(0, kTableBase,
                      {reinterpret_cast<std::uint8_t*>(readback_.data()),
                       kTableBytes})
             .ok()) {
      it.failed = kUpdates;
      it.check_error = "table read-back failed";
      return;
    }
    if (std::memcmp(readback_.data(), expected_.data(), kTableBytes) == 0) {
      return;
    }
    std::uint64_t bad = 0;
    for (const Update& u : updates_) {
      const std::uint64_t w = (u.addr - kTableBase) / 8;
      if (readback_[w] != expected_[w] || readback_[w + 1] != expected_[w + 1]) {
        ++bad;
      }
    }
    it.failed = std::max(it.failed, bad);
    it.check_error = "GUPS table differs from the XOR replay";
  }

  std::vector<std::uint64_t> table_;     ///< Preloaded contents.
  std::vector<std::uint64_t> expected_;  ///< Table after every update.
  std::vector<std::uint64_t> readback_;
  std::vector<Update> updates_;
};

}  // namespace

std::unique_ptr<Workload> make_gups(const Options& o) {
  return std::make_unique<Gups>(o);
}

}  // namespace perfbench
