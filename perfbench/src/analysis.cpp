#include "analysis.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "match/enumerator.hpp"
#include "policy/policy.hpp"

namespace perfbench {

using namespace mapa;

namespace {

// LatencyHistogram bucket b holds [kHistMinMs * kHistRatio^b, ... ^(b+1)).
constexpr double kHistMinMs = 1e-4;
constexpr double kHistRatio = 1.005;

class Fnv {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001B3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

}  // namespace

std::uint64_t record_digest(const cluster::FleetResult& result) {
  Fnv h;
  for (const cluster::FleetRecord& r : result.records) {
    const sim::JobRecord& rec = r.record;
    h.add(rec.job.id);
    h.add(r.server);
    h.add(r.retries);
    for (const graph::VertexId g : rec.gpus) h.add(g);
    h.add(rec.queued_s);
    h.add(rec.start_s);
    h.add(rec.finish_s);
    h.add(rec.exec_s);
    h.add(rec.predicted_effbw);
    h.add(rec.preserved_bw);
  }
  for (const cluster::DeadLetter& d : result.dead_letters) {
    h.add(d.job.id);
    h.add(d.retries);
    h.add(d.time_s);
  }
  h.add(result.makespan_s);
  return h.value();
}

void check_gpu_conservation(const cluster::FleetResult& result,
                            const std::vector<const graph::Graph*>& hardware,
                            Violations& v) {
  struct Hold {
    std::size_t server;
    graph::VertexId gpu;
    double start;
    double finish;
    int job;
  };
  std::vector<Hold> holds;
  std::unordered_set<int> ids;
  for (const cluster::FleetRecord& r : result.records) {
    const sim::JobRecord& rec = r.record;
    const std::string job = "job " + std::to_string(rec.job.id);
    if (!ids.insert(rec.job.id).second) v.fail(job + " recorded twice");
    if (r.server >= hardware.size()) {
      v.fail(job + " placed on a server the fleet does not have");
      continue;
    }
    std::vector<graph::VertexId> gpus = rec.gpus;
    std::sort(gpus.begin(), gpus.end());
    if (gpus.size() != rec.job.num_gpus ||
        std::adjacent_find(gpus.begin(), gpus.end()) != gpus.end() ||
        (!gpus.empty() && gpus.back() >= hardware[r.server]->num_vertices())) {
      v.fail(job + " does not hold its requested count of distinct GPUs");
    }
    if (rec.start_s > rec.finish_s) v.fail(job + " finishes before start");
    for (const graph::VertexId g : gpus) {
      holds.push_back({r.server, g, rec.start_s, rec.finish_s, rec.job.id});
    }
  }
  for (const cluster::DeadLetter& d : result.dead_letters) {
    if (!ids.insert(d.job.id).second) {
      v.fail("dead-lettered job " + std::to_string(d.job.id) +
             " also has a record");
    }
  }
  std::sort(holds.begin(), holds.end(), [](const Hold& a, const Hold& b) {
    return std::tie(a.server, a.gpu, a.start, a.finish) <
           std::tie(b.server, b.gpu, b.start, b.finish);
  });
  for (std::size_t i = 1; i < holds.size(); ++i) {
    const Hold& a = holds[i - 1];
    const Hold& b = holds[i];
    if (a.server != b.server || a.gpu != b.gpu || a.finish <= b.start) {
      continue;
    }
    v.fail("GPU " + std::to_string(b.gpu) + " of server " +
           std::to_string(b.server) + " held by jobs " + std::to_string(a.job) +
           " and " + std::to_string(b.job) + " at once");
  }
}

ReplayStats replay_layers(const cluster::FleetResult& result,
                          const std::vector<const graph::Graph*>& hardware,
                          std::size_t max_samples, Violations& v) {
  using Clock = std::chrono::steady_clock;
  ReplayStats stats;
  const std::vector<cluster::FleetRecord>& records = result.records;
  if (records.empty() || max_samples == 0) return stats;
  const std::size_t stride = (records.size() + max_samples - 1) / max_samples;
  const std::unique_ptr<policy::Policy> preserve =
      policy::make_policy("preserve");
  // Records are in placement order with non-decreasing start times, so a
  // server's busy mask before placement i is the union of its earlier
  // records still running at records[i].start_s.
  std::vector<std::vector<std::size_t>> running(hardware.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const cluster::FleetRecord& r = records[i];
    const double t = r.record.start_s;
    std::vector<std::size_t>& live = running.at(r.server);
    std::erase_if(live, [&](std::size_t j) {
      return records[j].record.finish_s <= t;
    });
    if (i % stride == 0) {
      const graph::Graph& hw = *hardware[r.server];
      std::vector<bool> busy(hw.num_vertices(), false);
      for (const std::size_t j : live) {
        for (const graph::VertexId g : records[j].record.gpus) busy[g] = true;
      }
      bool free = true;
      for (const graph::VertexId g : r.record.gpus) free = free && !busy[g];
      if (!free) {
        v.fail("replay: job " + std::to_string(r.record.job.id) +
               " was placed on a busy GPU");
      }

      const graph::Graph pattern = r.record.job.application_graph();
      match::EnumerateOptions options;
      options.forbidden = graph::VertexMask::of_busy(busy);
      policy::AllocationRequest request;
      request.pattern = &pattern;
      request.bandwidth_sensitive = r.record.job.bandwidth_sensitive;

      const auto t0 = Clock::now();
      const std::size_t matches = match::count_matches(pattern, hw, options);
      const auto t1 = Clock::now();
      const auto placement = preserve->allocate(hw, busy, request);
      const auto t2 = Clock::now();
      if (matches == 0 || !placement.has_value()) {
        v.fail("replay: job " + std::to_string(r.record.job.id) +
               " no longer places on its rebuilt state");
      }
      ++stats.calls;
      stats.matches += matches;
      stats.count_ns += elapsed_ns(t0, t1);
      stats.allocate_ns += elapsed_ns(t1, t2);
    }
    live.push_back(i);
  }
  return stats;
}

void LatencyHistogram::add(double ms) {
  const double x = std::max(ms, kHistMinMs);
  const auto b = static_cast<std::size_t>(std::log(x / kHistMinMs) /
                                          std::log(kHistRatio));
  if (b >= counts_.size()) counts_.resize(b + 1, 0);
  ++counts_[b];
  ++total_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.counts_.size() > counts_.size()) {
    counts_.resize(other.counts_.size(), 0);
  }
  for (std::size_t b = 0; b < other.counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
  }
  total_ += other.total_;
}

double LatencyHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  const double rank = q * static_cast<double>(total_);
  double below = 0.0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const double c = counts_[b];
    if (c > 0 && below + c >= rank) {
      const double frac = std::clamp((rank - below) / c, 0.0, 1.0);
      return kHistMinMs *
             std::pow(kHistRatio, static_cast<double>(b) + frac);
    }
    below += c;
  }
  return kHistMinMs * std::pow(kHistRatio, static_cast<double>(counts_.size()));
}

const SpanTotals& Attribution::get(const std::string& key) const {
  static const SpanTotals none;
  const auto it = spans.find(key);
  return it == spans.end() ? none : it->second;
}

SpanTotals Attribution::sum_prefix(const std::string& prefix) const {
  SpanTotals sum;
  for (auto it = spans.lower_bound(prefix);
       it != spans.end() && it->first.starts_with(prefix); ++it) {
    sum.count += it->second.count;
    sum.total_ns += it->second.total_ns;
    sum.self_ns += it->second.self_ns;
  }
  return sum;
}

void attribute(const obs::TraceSink& sink, std::uint32_t driver_tid,
               Attribution& into) {
  std::vector<obs::TraceEvent> events = sink.sorted_events();
  std::erase_if(events, [](const obs::TraceEvent& e) { return e.instant; });
  // Per thread, parents sort before the children they contain: by start,
  // then longest first.
  std::sort(events.begin(), events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              return std::tie(a.tid, a.start_ns, b.duration_ns) <
                     std::tie(b.tid, b.start_ns, a.duration_ns);
            });
  std::vector<std::uint64_t> child_ns(events.size(), 0);
  std::vector<std::size_t> open;  // indices of enclosing spans
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    const std::uint64_t end = e.start_ns + e.duration_ns;
    while (!open.empty()) {
      const obs::TraceEvent& top = events[open.back()];
      if (top.tid == e.tid && top.start_ns + top.duration_ns > e.start_ns) {
        break;
      }
      open.pop_back();
    }
    if (open.empty()) {
      if (e.tid == driver_tid) into.driver_covered_ns += e.duration_ns;
    } else {
      const obs::TraceEvent& parent = events[open.back()];
      const std::uint64_t parent_end = parent.start_ns + parent.duration_ns;
      child_ns[open.back()] += std::min(end, parent_end) - e.start_ns;
    }
    open.push_back(i);
  }
  // Fold per (category, name) pointer pair first; literals with equal
  // text may differ in address across translation units, so the string
  // map below merges them.
  std::map<std::pair<const char*, const char*>, SpanTotals> by_ptr;
  for (std::size_t i = 0; i < events.size(); ++i) {
    SpanTotals& t = by_ptr[{events[i].category, events[i].name}];
    ++t.count;
    t.total_ns += events[i].duration_ns;
    t.self_ns += events[i].duration_ns - std::min(child_ns[i],
                                                  events[i].duration_ns);
  }
  for (const auto& [key, t] : by_ptr) {
    SpanTotals& dst =
        into.spans[std::string(key.first) + "/" + std::string(key.second)];
    dst.count += t.count;
    dst.total_ns += t.total_ns;
    dst.self_ns += t.self_ns;
  }
  into.dropped += sink.dropped();
}

}  // namespace perfbench
