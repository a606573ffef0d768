// stream_triad — STREAM Triad a[i] = b[i] + s*c[i] on one 8Link-8GB cube,
// moved in 256-byte blocks: per block the host issues RD256 b, RD256 c,
// computes the block and issues WR256 a. The three 8 MiB arrays are
// walked sequentially; a closed-loop window of blocks is in flight, block
// slot k using tags 2k (b read, then the write) and 2k+1 (c read) on link
// k % 8. Every request and response of a block is a 17-FLIT packet on one
// side, so link CRC, crossbar bandwidth and payload copies dominate.
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

constexpr std::uint64_t kArrayBytes = 8ULL << 20;
constexpr std::uint64_t kBlockBytes = 256;
constexpr std::uint64_t kBlockWords = kBlockBytes / 8;
constexpr std::uint64_t kBlocks = kArrayBytes / kBlockBytes;
constexpr std::uint64_t kElems = kArrayBytes / 8;
constexpr std::array<std::uint64_t, 3> kBase = {0x0000'0000, 0x1000'0000,
                                                0x2000'0000};  // a, b, c
constexpr std::uint32_t kWindow = 128;
constexpr std::uint64_t kSegment = kBlocks / 16;  ///< Blocks per timed segment.
constexpr std::uint64_t kPreloadChunk = 4096;
constexpr std::uint64_t kWatchdogCycles = 100'000'000;

/// The one triad expression, shared by the host loop and the oracle so
/// both round identically.
[[nodiscard]] inline double triad(double b, double s, double c) {
  return b + s * c;
}

enum class Phase : std::uint8_t { Idle, Reading, Writing };

struct Slot {
  Phase phase = Phase::Idle;
  std::uint64_t block = 0;
  std::uint8_t pending = 0;  ///< Bits 0 (RD b), 1 (RD c), 2 (WR a) to send.
  std::uint8_t reads_in = 0;
  std::array<std::uint64_t, kBlockWords> b{}, c{}, a{};
};

class StreamTriad final : public Workload {
 public:
  explicit StreamTriad(const Options& o) {
    Rng rng(o.seed);
    scalar_ = 1.0 + rng.unit();
    b_.resize(kElems);
    c_.resize(kElems);
    expected_.resize(kElems);
    for (std::uint64_t i = 0; i < kElems; ++i) {
      b_[i] = rng.unit();
      c_[i] = rng.unit();
      expected_[i] = triad(b_[i], scalar_, c_[i]);
    }
  }

  std::string params() const override {
    return R"({"config": "8Link-8GB", "array_bytes": 8388608, )"
           R"("block_bytes": 256, "ops": "RD256 b, RD256 c, WR256 a", )"
           R"("window_blocks": 128, "loop": "closed", "walk": "sequential"})";
  }

  Outcome pinned() const override {
    return {.cycles = 17303,
            .responses = 98304,
            .latency_count = 98304,
            .latency_sum = 3301292};
  }

  Iteration iterate(Tracer* tr, bool stage_stats) override {
    Iteration it;
    Config cfg = Config::hmc_8link_8gb();
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
    for (std::size_t arr = 1; arr < 3; ++arr) {
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(
          arr == 1 ? b_.data() : c_.data());
      for (std::uint64_t off = 0; off < kArrayBytes; off += kPreloadChunk) {
        Scope s(tr, Span::SimMemWrite);
        if (!sim->mem_write(0, kBase[arr] + off, {bytes + off, kPreloadChunk})
                 .ok()) {
          it.check_error = "array preload failed";
        }
      }
    }
    auto lap_start = Clock::now();
    it.setup.push_back(seconds_between(t0, lap_start));

    const std::uint32_t links = cfg.num_links;
    std::vector<Slot> slots(kWindow);
    std::uint64_t cursor = 0, done = 0, responses = 0;
    it.latencies.reserve(3 * kBlocks);
    const auto try_send = [&](std::uint32_t k) {
      Slot& sl = slots[k];
      for (std::uint8_t bit = 0; bit < 3; ++bit) {
        if ((sl.pending & (1U << bit)) == 0) {
          continue;
        }
        hmcsim::spec::RqstParams p;
        p.rqst = bit == 2 ? Rqst::WR256 : Rqst::RD256;
        p.addr = kBase[bit == 2 ? 0 : bit + 1] + sl.block * kBlockBytes;
        p.tag = static_cast<std::uint16_t>(2 * k + (bit == 1 ? 1 : 0));
        if (bit == 2) {
          p.payload = sl.a;
        }
        hmcsim::Status st;
        {
          Scope s(tr, Span::SimSend, 3 * sl.block + bit + 1);
          st = sim->send(p, k % links);
        }
        if (st.stalled()) {
          return;  // Keep the block's requests in order.
        }
        sl.pending = static_cast<std::uint8_t>(sl.pending & ~(1U << bit));
        if (!st.ok()) {
          ++it.failed;
        }
      }
    };
    const auto start_block = [&](std::uint32_t k) {
      Slot& sl = slots[k];
      if (cursor >= kBlocks) {
        sl.phase = Phase::Idle;
        return;
      }
      sl.block = cursor++;
      sl.phase = Phase::Reading;
      sl.reads_in = 0;
      sl.pending = 0b011;
      try_send(k);
    };
    const auto on_rsp = [&](const hmcsim::sim::Response& r) {
      const std::uint32_t k = r.pkt.tag() / 2U;
      const bool c_read = (r.pkt.tag() & 1U) != 0;
      if (k >= kWindow || slots[k].phase == Phase::Idle) {
        ++it.failed;
        return;
      }
      Slot& sl = slots[k];
      const auto payload = r.pkt.payload();
      if (sl.phase == Phase::Reading) {
        const bool ok = r.pkt.errstat() == 0 && payload.size() == kBlockWords;
        it.failed += ok ? 0 : 1;
        if (ok) {
          std::memcpy(c_read ? sl.c.data() : sl.b.data(), payload.data(),
                      kBlockBytes);
        }
        if (++sl.reads_in == 2) {
          for (std::uint64_t w = 0; w < kBlockWords; ++w) {
            double bv, cv;
            std::memcpy(&bv, &sl.b[w], 8);
            std::memcpy(&cv, &sl.c[w], 8);
            const double av = triad(bv, scalar_, cv);
            std::memcpy(&sl.a[w], &av, 8);
          }
          sl.phase = Phase::Writing;
          sl.pending = 0b100;
          try_send(k);
        }
        return;
      }
      it.failed += r.pkt.errstat() == 0 && payload.empty() ? 0 : 1;
      if (++done % kSegment == 0) {
        lap(it.run, lap_start);
      }
      start_block(k);
    };

    const std::uint64_t start = sim->cycle();
    for (std::uint32_t k = 0; k < kWindow; ++k) {
      start_block(k);
    }
    hmcsim::sim::Response rsp;
    while (done < kBlocks && sim->cycle() - start <= kWatchdogCycles) {
      for (std::uint32_t k = 0; k < kWindow; ++k) {
        if (slots[k].pending != 0) {
          try_send(k);
        }
      }
      {
        Scope s(tr, Span::SimClock);
        sim->clock();
      }
      for (std::uint32_t link = 0; link < links; ++link) {
        while (recv_span(tr, *sim, link, rsp, [&](const auto& r) {
          const std::uint32_t k = r.pkt.tag() / 2U;
          if (k >= kWindow) {
            return std::uint64_t{0};
          }
          const bool write = slots[k].phase == Phase::Writing;
          return 3 * slots[k].block + (write ? 2 : (r.pkt.tag() & 1U)) + 1;
        })) {
          ++responses;
          it.latencies.push_back(rsp.latency);
          on_rsp(rsp);
        }
      }
    }
    lap(it.run, lap_start);
    it.attempted = 3 * kBlocks;
    it.failed += 3 * (kBlocks - done);  // Blocks lost to the watchdog.
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
    check_a(*sim, it);
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
    for (std::size_t arr = 1; arr < 3; ++arr) {
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(
          arr == 1 ? b_.data() : c_.data());
      for (std::uint64_t off = 0; off < kArrayBytes; off += kPreloadChunk) {
        replay_write(tr, store, kBase[arr] + off, {bytes + off, kPreloadChunk},
                     0);
      }
    }
    const auto* a = reinterpret_cast<const std::uint64_t*>(expected_.data());
    std::array<std::uint8_t, kBlockBytes> buf{};
    for (std::uint64_t blk = 0; blk < kBlocks; ++blk) {
      const std::uint64_t off = blk * kBlockBytes;
      for (std::uint64_t op = 0; op < 3; ++op) {
        const std::uint64_t id = 3 * blk + op + 1;
        hmcsim::spec::RqstParams p;
        p.rqst = op == 2 ? Rqst::WR256 : Rqst::RD256;
        p.addr = kBase[op == 2 ? 0 : op + 1] + off;
        p.tag = static_cast<std::uint16_t>(2 * (blk % kWindow) + (op == 1));
        if (op == 2) {
          p.payload = {a + blk * kBlockWords, kBlockWords};
        }
        replay_build(tr, p, id);
        if (op == 2) {
          replay_write(tr, store, p.addr,
                       {reinterpret_cast<const std::uint8_t*>(p.payload.data()),
                        kBlockBytes},
                       id);
        } else {
          replay_read(tr, store, p.addr, buf, id);
        }
      }
    }
    counts["mem.resident_pages"] = static_cast<double>(store.resident_pages());
  }

 private:
  /// Oracle: every a[i] bit-exactly equal to the host-computed b[i] +
  /// s*c[i]; the three requests of a wrong block count as failed.
  void check_a(const Simulator& sim, Iteration& it) {
    readback_.resize(kElems);
    if (!sim.mem_read(0, kBase[0],
                      {reinterpret_cast<std::uint8_t*>(readback_.data()),
                       kArrayBytes})
             .ok()) {
      it.failed = it.attempted;
      it.check_error = "array read-back failed";
      return;
    }
    if (std::memcmp(readback_.data(), expected_.data(), kArrayBytes) == 0) {
      return;
    }
    std::uint64_t bad = 0;
    for (std::uint64_t blk = 0; blk < kBlocks; ++blk) {
      bad += std::memcmp(readback_.data() + blk * kBlockWords,
                         expected_.data() + blk * kBlockWords, kBlockBytes) != 0
                 ? 3
                 : 0;
    }
    it.failed = std::max(it.failed, bad);
    it.check_error = "STREAM a[] differs from b + s*c";
  }

  double scalar_ = 0;
  std::vector<double> b_, c_, expected_, readback_;
};

}  // namespace

std::unique_ptr<Workload> make_stream_triad(const Options& o) {
  return std::make_unique<StreamTriad>(o);
}

}  // namespace perfbench
