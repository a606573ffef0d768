// replay.hpp — replays of a workload's own inputs through single layers.
//
// The traced run feeds the requests a workload generates through
// spec::build_request (packet build + CRC-32K) and their memory effect
// through amo::execute, mem::BackingStore::read and ::write on a standalone
// store, each call in its own span. These isolate the cost of one layer
// per request, without the pipeline around it.
#pragma once

#include <cstdint>
#include <span>

#include "amo/amo_unit.hpp"
#include "mem/backing_store.hpp"
#include "spec/packet.hpp"
#include "spans.hpp"

namespace perfbench {

/// Capacity of a standalone replay store: the largest cube.
inline constexpr std::uint64_t kReplayCapacity = 8ULL << 30;

inline void replay_build(Tracer& tr, const hmcsim::spec::RqstParams& p,
                         std::uint64_t id) {
  hmcsim::spec::RqstPacket pkt;
  Scope s(&tr, Span::SpecBuildRequest, id);
  (void)hmcsim::spec::build_request(p, pkt);
}

inline void replay_read(Tracer& tr, const hmcsim::mem::BackingStore& store,
                        std::uint64_t addr, std::span<std::uint8_t> out,
                        std::uint64_t id) {
  Scope s(&tr, Span::MemRead, id);
  (void)store.read(addr, out);
}

inline void replay_write(Tracer& tr, hmcsim::mem::BackingStore& store,
                         std::uint64_t addr, std::span<const std::uint8_t> in,
                         std::uint64_t id) {
  Scope s(&tr, Span::MemWrite, id);
  (void)store.write(addr, in);
}

inline void replay_amo(Tracer& tr, hmcsim::mem::BackingStore& store,
                       hmcsim::spec::Rqst rqst, std::uint64_t addr,
                       std::span<const std::uint64_t> payload,
                       std::uint64_t id) {
  hmcsim::amo::AmoResult r;
  Scope s(&tr, Span::AmoExecute, id);
  (void)hmcsim::amo::execute(rqst, store, addr, payload, r);
}

}  // namespace perfbench
