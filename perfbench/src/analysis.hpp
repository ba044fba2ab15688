#pragma once
// Output checks, record digests, the layer replay and span attribution —
// everything the benchmark derives from a session after it ran.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/fleet.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Correctness violations found while running; any entry fails the run.
struct Violations {
  std::vector<std::string> items;
  std::size_t total = 0;

  void fail(const std::string& what) {
    ++total;
    if (items.size() < 20) items.push_back(what);
  }
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

/// FNV-1a over every record (job, server, retries, GPUs, times, scores)
/// and dead letter, in order. Equal digests mean equal schedules.
std::uint64_t record_digest(const mapa::cluster::FleetResult& result);

/// GPU conservation rebuilt from records: each job holds exactly its
/// requested number of distinct GPUs of its server, and no GPU is held by
/// two records whose [start, finish) intervals overlap. Also checks that
/// no job id appears twice among records and dead letters.
void check_gpu_conservation(
    const mapa::cluster::FleetResult& result,
    const std::vector<const mapa::graph::Graph*>& hardware, Violations& v);

/// Public matcher and policy timed on allocation states rebuilt from the
/// records: for each sampled placement, the busy mask of its server just
/// before it was placed.
struct ReplayStats {
  std::uint64_t calls = 0;
  std::uint64_t matches = 0;       // sum of count_matches results
  std::uint64_t count_ns = 0;      // match::count_matches
  std::uint64_t allocate_ns = 0;   // cache-less "preserve" allocate
};

/// Replays at most `max_samples` placements, evenly spaced over the
/// records. A placement whose pattern does not embed in its rebuilt
/// state, or that the policy cannot place there, is a violation.
ReplayStats replay_layers(
    const mapa::cluster::FleetResult& result,
    const std::vector<const mapa::graph::Graph*>& hardware,
    std::size_t max_samples, Violations& v);

/// Log-bucketed latency histogram: buckets 0.5% wide from 100 ns up, so a
/// run can keep each session's latency distribution in a few KiB.
class LatencyHistogram {
 public:
  void add(double ms);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const { return total_; }
  /// Quantile q in [0, 1], interpolated geometrically inside its bucket;
  /// 0 when empty.
  double quantile(double q) const;

 private:
  std::vector<std::uint32_t> counts_;
  std::uint64_t total_ = 0;
};

/// Per-span totals keyed by "category/name".
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;  // total minus the time direct children cover
};

struct Attribution {
  std::map<std::string, SpanTotals> spans;
  /// Time the driver thread spent inside any span (= the sum of self
  /// times on that thread).
  std::uint64_t driver_covered_ns = 0;
  std::uint64_t dropped = 0;

  const SpanTotals& get(const std::string& key) const;
  /// Sum over every span whose key starts with `prefix`.
  SpanTotals sum_prefix(const std::string& prefix) const;
};

/// Folds a trace sink's events into `into`. Nesting is rebuilt per
/// thread from start times and durations; `driver_tid` is the thread
/// slot of the thread that ran the session.
void attribute(const mapa::obs::TraceSink& sink, std::uint32_t driver_tid,
               Attribution& into);

}  // namespace perfbench
