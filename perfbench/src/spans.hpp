// spans.hpp — in-memory spans around the benchmark's calls into the program.
//
// Every call the benchmark makes into a layer can be wrapped in a Scope.
// With a null tracer the Scope is one predictable branch, so untimed and
// timed code share one path. With a tracer each span records its name,
// start, end, parent (the innermost open span) and an id: the request's
// sequence number or batch ticket, so the spans of one request share it.
// Spans stay in memory and are written out when the run ends.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Span : std::uint8_t {
  SimCreate,
  SimLoadCmc,
  SimMemWrite,
  SimSend,
  SimClock,
  SimClockUntil,
  SimNextEvent,
  SimRecv,
  SimDestroy,
  CapiInit,
  CapiMemWrite,
  CapiSendBatch,
  CapiBatchAdvance,
  CapiPollBatch,
  CapiClockUntil,
  CapiFree,
  SpecBuildRequest,
  AmoExecute,
  MemRead,
  MemWrite,
  kCount,
};

inline constexpr std::size_t kSpanCount = static_cast<std::size_t>(Span::kCount);

inline constexpr std::array<const char*, kSpanCount> kSpanNames = {
    "sim.create",       "sim.load_cmc",       "sim.mem_write",
    "sim.send",         "sim.clock",          "sim.clock_until",
    "sim.next_event",   "sim.recv",           "sim.destroy",
    "capi.init",        "capi.mem_write",     "capi.send_batch",
    "capi.batch_advance", "capi.poll_batch",  "capi.clock_until",
    "capi.free",        "spec.build_request", "amo.execute",
    "mem.read",         "mem.write",
};

/// Aggregate of one span name.
struct SpanSummary {
  std::uint64_t calls = 0;
  double self_s = 0;          ///< Duration minus time covered by children.
  std::uint64_t p50_ns = 0;
  std::uint64_t tail_ns = 0;  ///< See tail_pct.
  /// The highest of p90/p99/p99.9/... with at least ten samples beyond
  /// it; 100 (the maximum) when there are too few samples for any.
  double tail_pct = 0;
};

class Tracer {
 public:
  /// Keeps at most `max_records` full span records for write-out; the
  /// per-name aggregates always cover every span.
  explicit Tracer(std::size_t max_records);

  void begin(Span name, std::uint64_t id);
  /// Ends the innermost open span.
  void end();
  /// Re-labels the innermost open span (e.g. a recv learns its request).
  void set_id(std::uint64_t id);

  [[nodiscard]] SpanSummary summary(Span name) const;
  /// Host time covered by root spans (spans with no parent).
  [[nodiscard]] double root_s() const {
    return 1e-9 * static_cast<double>(root_ns_);
  }

  /// Write every kept record as CSV (span,id,start_ns,end_ns,parent).
  [[nodiscard]] bool write_csv(const std::string& path) const;

 private:
  struct Open {
    std::int64_t start = 0;
    std::int64_t child_ns = 0;
    std::int64_t record = -1;  ///< Index into records_, -1 when not kept.
    std::uint64_t id = 0;
    Span name = Span::kCount;
  };
  struct Record {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint64_t id = 0;
    std::int64_t parent = -1;
    Span name = Span::kCount;
  };
  struct Agg {
    std::uint64_t calls = 0;
    std::int64_t self_ns = 0;
    std::vector<std::uint32_t> durations;  ///< ns, saturated.
  };

  std::vector<Open> stack_;
  std::vector<Record> records_;
  std::size_t max_records_;
  std::uint64_t dropped_ = 0;
  std::array<Agg, kSpanCount> agg_;
  std::int64_t epoch_;
  std::int64_t root_ns_ = 0;
};

/// RAII span; a no-op when the tracer is null.
class Scope {
 public:
  Scope(Tracer* t, Span name, std::uint64_t id = 0) : t_(t) {
    if (t_ != nullptr) {
      t_->begin(name, id);
    }
  }
  ~Scope() {
    if (t_ != nullptr) {
      t_->end();
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void set_id(std::uint64_t id) {
    if (t_ != nullptr) {
      t_->set_id(id);
    }
  }

 private:
  Tracer* t_;
};

}  // namespace perfbench
