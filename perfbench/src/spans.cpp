#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench.hpp"

namespace perfbench {
namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer(std::size_t max_records)
    : max_records_(max_records), epoch_(now_ns()) {
  stack_.reserve(16);
}

void Tracer::begin(Span name, std::uint64_t id) {
  Open o;
  o.name = name;
  o.id = id;
  if (records_.size() < max_records_) {
    o.record = static_cast<std::int64_t>(records_.size());
    Record r;
    r.name = name;
    r.parent = stack_.empty() ? -1 : stack_.back().record;
    records_.push_back(r);
  } else {
    ++dropped_;
  }
  o.start = now_ns();
  stack_.push_back(o);
}

void Tracer::set_id(std::uint64_t id) { stack_.back().id = id; }

void Tracer::end() {
  const std::int64_t t = now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t - o.start;
  Agg& a = agg_[static_cast<std::size_t>(o.name)];
  ++a.calls;
  a.self_ns += dur - o.child_ns;
  a.durations.push_back(static_cast<std::uint32_t>(std::min<std::int64_t>(
      dur, std::numeric_limits<std::uint32_t>::max())));
  if (stack_.empty()) {
    root_ns_ += dur;
  } else {
    stack_.back().child_ns += dur;
  }
  if (o.record >= 0) {
    Record& r = records_[static_cast<std::size_t>(o.record)];
    r.start = o.start - epoch_;
    r.end = t - epoch_;
    r.id = o.id;
  }
}

SpanSummary Tracer::summary(Span name) const {
  const Agg& a = agg_[static_cast<std::size_t>(name)];
  SpanSummary s;
  s.calls = a.calls;
  s.self_s = 1e-9 * static_cast<double>(a.self_ns);
  if (a.durations.empty()) {
    return s;
  }
  std::vector<std::uint64_t> d(a.durations.begin(), a.durations.end());
  s.p50_ns = percentile(d, 50);
  const double n = static_cast<double>(d.size());
  s.tail_pct = 100;
  s.tail_ns = d.back();
  for (const double p : {99.999, 99.99, 99.9, 99.0, 90.0}) {
    const double rank = std::ceil(p / 100 * n);
    if (n - rank >= 10) {
      s.tail_pct = p;
      s.tail_ns = percentile(d, p);
      break;
    }
  }
  return s;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "# spans kept=%zu dropped=%llu\nspan,id,start_ns,end_ns,parent\n",
               records_.size(), static_cast<unsigned long long>(dropped_));
  for (const Record& r : records_) {
    std::fprintf(f, "%s,%llu,%lld,%lld,%lld\n",
                 kSpanNames[static_cast<std::size_t>(r.name)],
                 static_cast<unsigned long long>(r.id),
                 static_cast<long long>(r.start),
                 static_cast<long long>(r.end),
                 static_cast<long long>(r.parent));
  }
  return std::fclose(f) == 0;
}

std::uint64_t percentile(std::vector<std::uint64_t>& v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

}  // namespace perfbench
