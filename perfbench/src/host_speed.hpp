// host_speed.hpp — fixed reference work that measures how fast the host
// runs at the moment.
//
// On a host shared with other tenants, the simulator's speed moves with
// their load, by up to 1.8x, in phases from under a second to minutes.
// Medians within a run cannot remove a phase that covers most of the run.
// The benchmark therefore times this reference work between iterations and
// scales each iteration's host times by the host speed measured on either
// side of it, so the end-to-end metrics read as if the host ran at the
// speed of a quiet reference host. The reference lives entirely in the
// benchmark's own code and memory, so no change to the simulator can
// change it.
//
// Contention slows code by how it uses the memory hierarchy, and no single
// kernel tried kept every workload's run-to-run spread low in every phase
// of the host's load. The reference is therefore four kernels, and the
// slowdown is their geometric mean:
//   - hash-table churn over 30,000 keys on a private 2 MiB arena
//     (allocation and pointer chasing in the L2),
//   - random read-modify-write over a 1 MiB table,
//   - the same over an 8 MiB table (beyond the L2),
//   - a sort of 100,000 words (branchy compute).
// Each kernel first touches its own memory, untimed, so what the iteration
// before it left in the caches does not change its time.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory_resource>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class HostSpeed {
 public:
  HostSpeed()
      : arena_(kArenaBytes),
        small_(kSmallWords),
        large_(kLargeWords),
        sort_src_(kSortWords),
        sort_buf_(kSortWords) {
    Rng r(0x5EED);
    for (auto* v : {&small_, &large_, &sort_src_}) {
      for (std::uint64_t& w : *v) {
        w = r.next();
      }
    }
  }

  /// Runs every kernel once and returns the host's slowdown: the geometric
  /// mean over the kernels of measured ÷ nominal seconds. It is 1 on the
  /// reference host when quiet and above 1 when the host is slower.
  double slowdown() {
    const std::array<double, 4> measured = {time_map(), time_table(small_),
                                            time_table(large_), time_sort()};
    double log_sum = 0;
    for (std::size_t k = 0; k < measured.size(); ++k) {
      log_sum += std::log(measured[k] / kNominalSeconds[k]);
    }
    return std::exp(log_sum / static_cast<double>(measured.size()));
  }

  /// The host's speed over a piece of work bracketed by two slowdown
  /// samples: 1 at the nominal speed, below 1 when the host is slower.
  static double speed(double before, double after) {
    return 2.0 / (before + after);
  }

 private:
  /// Each kernel's time on the reference host (a 4-vCPU Xeon VM) in a
  /// quiet phase: map, 1 MiB table, 8 MiB table, sort. Any fixed values
  /// work; these keep scaled metrics close to unscaled ones there.
  static constexpr std::array<double, 4> kNominalSeconds = {0.0045, 0.0028,
                                                            0.0055, 0.0075};
  static constexpr std::size_t kArenaBytes = 2U << 20;  ///< Needs ~1.45 MB.
  static constexpr int kMapOps = 100'000;
  static constexpr std::uint64_t kMapKeys = 30'000;
  static constexpr std::size_t kSmallWords = (1U << 20) / 8;
  static constexpr std::size_t kLargeWords = (8U << 20) / 8;
  static constexpr int kTableOps = 400'000;
  static constexpr std::size_t kSortWords = 100'000;

  double time_map() {
    std::memset(arena_.data(), 0, arena_.size());
    const Clock::time_point t0 = Clock::now();
    std::pmr::monotonic_buffer_resource res(arena_.data(), arena_.size(),
                                            std::pmr::null_memory_resource());
    std::pmr::unordered_map<std::uint64_t, std::uint64_t> map(&res);
    Rng r(1);
    std::uint64_t acc = 0;
    for (int i = 0; i < kMapOps; ++i) {
      const auto [it, inserted] =
          map.try_emplace(r.below(kMapKeys), static_cast<std::uint64_t>(i));
      if (!inserted) {
        acc += it->second;
        if ((i & 1) != 0) {
          map.erase(it);
        }
      }
    }
    sink_ += acc + map.size();
    return seconds_between(t0, Clock::now());
  }

  /// `table.size()` must be a power of two.
  double time_table(std::vector<std::uint64_t>& table) {
    sink_ += std::accumulate(table.begin(), table.end(), std::uint64_t{0});
    const Clock::time_point t0 = Clock::now();
    Rng r(2);
    std::uint64_t acc = 0;
    for (int i = 0; i < kTableOps; ++i) {
      const std::uint64_t v = r.next();
      std::uint64_t& w = table[v & (table.size() - 1)];
      if (((w ^ v) & 1) != 0) {
        w += v;
      } else {
        acc += w;
      }
    }
    sink_ += acc;
    return seconds_between(t0, Clock::now());
  }

  double time_sort() {
    const Clock::time_point t0 = Clock::now();
    std::copy(sort_src_.begin(), sort_src_.end(), sort_buf_.begin());
    std::sort(sort_buf_.begin(), sort_buf_.end());
    sink_ += sort_buf_[kSortWords / 2];
    return seconds_between(t0, Clock::now());
  }

  std::vector<std::byte> arena_;
  std::vector<std::uint64_t> small_, large_, sort_src_, sort_buf_;
  std::uint64_t sink_ = 0;  ///< Keeps the work observable.
};

}  // namespace perfbench
