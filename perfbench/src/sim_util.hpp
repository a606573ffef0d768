// sim_util.hpp — small helpers shared by the sim::Simulator workloads.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "bench.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"

namespace perfbench {

/// The five journey stages behind the sim.wait.* metrics.
inline constexpr std::array<const char*, 5> kStages = {
    "link_ingress", "vault_queue", "bank_service", "rsp_queue", "rsp_path"};

/// Simulator::recv in its own sim.recv span, which `id_of(response)`
/// labels once a response arrived. False when the link had none.
template <class IdFn>
bool recv_span(Tracer* tr, hmcsim::sim::Simulator& sim, std::uint32_t link,
               hmcsim::sim::Response& rsp, IdFn id_of) {
  Scope s(tr, Span::SimRecv);
  if (!sim.recv(link, rsp).ok()) {
    return false;
  }
  s.set_id(id_of(rsp));
  return true;
}

/// Adds every registry counter of `sim` into `into`.
inline void add_stats(StatSnapshot& into, const hmcsim::sim::Simulator& sim) {
  for (const auto& [path, value] : sim.metrics().snapshot_counters()) {
    into[path] += value;
  }
}

/// Accumulates host.stage.* histogram sums and counts over simulators.
struct StageAcc {
  std::array<std::uint64_t, kStages.size()> sum{};
  std::array<std::uint64_t, kStages.size()> count{};

  void add(const hmcsim::sim::Simulator& sim) {
    for (std::size_t i = 0; i < kStages.size(); ++i) {
      const auto* h = sim.metrics().find_histogram(std::string("host.stage.") +
                                                   kStages[i]);
      if (h != nullptr) {
        sum[i] += h->sum();
        count[i] += h->count();
      }
    }
  }
  void finish(Iteration& it) const {
    for (std::size_t i = 0; i < kStages.size(); ++i) {
      it.stage_mean[kStages[i]] =
          count[i] == 0 ? 0.0
                        : static_cast<double>(sum[i]) /
                              static_cast<double>(count[i]);
    }
  }
};

}  // namespace perfbench
