// Repository benchmark driver. Runs one workload for a fixed wall-clock
// budget and prints, as its last stdout line, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, measured with no
// observer attached. With --trace 1 they are the per-layer ones: traced
// sessions (an obs::Observer with tracing on, attached through
// ClusterConfig::observer) alternate with untraced ones, and a layer
// replay times the matcher and policy on rebuilt allocation states.
// Exits 1 on any correctness violation, 2 on bad arguments.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>

#include <sys/resource.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis.hpp"
#include "obs/obs.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string("missing value for ") + argv[i]);
    }
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
      have[1] = true;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
      have[2] = true;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
      have[3] = true;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    throw std::invalid_argument(
        "usage: perfbench_driver --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1>");
  }
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  return args;
}

/// Ordered metric list; printed as a table and as the JSON result.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }

  void print_table() const {
    for (const Item& m : items_) {
      std::printf("  %-40s %16s %s\n", m.name.c_str(),
                  number(m.value).c_str(), m.unit.c_str());
    }
  }

  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + items_[i].name + "\": {\"value\": " +
             number(items_[i].value) + ", \"unit\": \"" + items_[i].unit +
             "\"}";
    }
    return out + "}";
  }

  static std::string number(double value) {
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, r.ptr);
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> xs) {
  return xs.empty() ? 0.0 : mapa::util::quantile(xs, 0.5);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set since the last call, in MiB: VmHWM, reset after
/// each read through /proc/self/clear_refs so every session reports its
/// own peak. Falls back to the process-lifetime peak where the reset is
/// unavailable.
double take_peak_rss_mb() {
  double kib = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf", &kib) == 1) break;
    }
    std::fclose(f);
  }
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
  if (kib <= 0.0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    kib = static_cast<double>(usage.ru_maxrss);  // KiB on Linux
  }
  return kib / 1024.0;
}

void print_context(const Workload& w, const Args& args) {
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
#ifdef PERFBENCH_AVX2_COMPILED
  const bool avx2_compiled = true;
#else
  const bool avx2_compiled = false;
#endif
#if defined(__x86_64__)
  const bool avx2_cpu = __builtin_cpu_supports("avx2");
#else
  const bool avx2_cpu = false;
#endif
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf(
      "context host=%s nproc=%u threads=%zu build=%s compiler=\"%s\" "
      "avx2_dispatch=%s\n",
      host, std::thread::hardware_concurrency(), w.config.threads,
      PERFBENCH_BUILD_TYPE, __VERSION__,
      avx2_compiled && avx2_cpu ? "yes" : avx2_compiled ? "no-cpu" : "no");
}

/// Run totals over sessions.
struct Totals {
  std::uint64_t sessions = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const Session& s) {
    ++sessions;
    attempted += s.attempted;
    failed += s.failed;
  }
};

void expect_digest(const Session& s, std::uint64_t reference,
                   const std::string& what, Violations& v) {
  v.expect(s.digest == reference,
           what + ": record digest differs from the first session's");
}

/// One line per input plus the run digest, a hash of the input digests.
void print_digests(const std::vector<std::uint64_t>& digests) {
  std::uint64_t run = 0xCBF29CE484222325ULL;
  for (std::size_t k = 0; k < digests.size(); ++k) {
    std::printf("digest input %zu %016llx\n", k,
                static_cast<unsigned long long>(digests[k]));
    run = (run ^ digests[k]) * 0x100000001B3ULL;
  }
  std::printf("digest run %016llx\n", static_cast<unsigned long long>(run));
}

/// Independent inputs an end-to-end run cycles through. The sim_* metrics
/// and the run digest cover exactly these, so they are a function of the
/// seed.
constexpr std::size_t kInputs = 8;

std::vector<Input> make_inputs(const Workload& w) {
  std::vector<Input> inputs;
  for (std::size_t k = 0; k < kInputs; ++k) inputs.push_back(make_input(w, k));
  return inputs;
}

/// Returns freed heap to the system between sessions, so a session's peak
/// resident set counts what that session holds, not allocator history.
void release_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// One timed pass over an input.
struct Pass {
  double wall_s = 0.0;
  std::uint64_t allocations = 0;
  LatencyHistogram latency;
};

/// End-to-end run: untraced sessions, cycling through the inputs, until
/// every input has run once and the budget is spent. The timing metrics
/// come from the fastest quarter of each input's passes (at least one):
/// the host's speed drifts by up to 1.6x in phases lasting seconds
/// (README.md), and the fastest passes are the readings least disturbed by
/// it, while several passes give the tail percentiles enough samples.
Totals run_end_to_end(const Workload& w, const Args& args, Violations& v,
                      Metrics& m) {
  const std::vector<Input> inputs = make_inputs(w);
  const std::size_t n_inputs = inputs.size();
  // Warm-up at one probe thread: the measured thread count must reproduce
  // its records exactly (the fleet determinism contract).
  const std::uint64_t one_thread =
      run_session(w, inputs[0], 1, nullptr, v).digest;
  release_heap();
  take_peak_rss_mb();

  Totals totals;
  std::vector<std::uint64_t> digests;
  std::vector<std::vector<Pass>> passes(n_inputs);
  std::vector<double> setups;
  std::vector<double> rss_mb;
  std::vector<double> exec_s;
  double worst_exec_s = 0.0;
  double makespan_s = 0.0;
  const auto t0 = Clock::now();
  for (std::size_t n = 0; n < n_inputs || seconds_since(t0) < args.seconds;
       ++n) {
    const std::size_t k = n % n_inputs;
    Session s = run_session(w, inputs[k], w.config.threads, nullptr, v);
    if (n < n_inputs) {
      digests.push_back(s.digest);
      for (const auto& r : s.result.records) {
        exec_s.push_back(r.record.exec_s);
        worst_exec_s = std::max(worst_exec_s, r.record.exec_s);
      }
      makespan_s += s.result.makespan_s / static_cast<double>(n_inputs);
    } else {
      expect_digest(s, digests[k], "repeat of input " + std::to_string(k), v);
    }
    if (n == 0) {
      expect_digest(s, one_thread,
                    "threads=" + std::to_string(w.config.threads) +
                        " vs threads=1",
                    v);
    }
    totals.add(s);
    setups.push_back(s.setup_s);
    passes[k].push_back({s.wall_s, s.allocations, std::move(s.latency)});
    s = {};
    release_heap();
    rss_mb.push_back(take_peak_rss_mb());
  }
  while (setups.size() < 7) setups.push_back(measure_setup(w, inputs[0]));
  print_digests(digests);

  double wall_s = 0.0;
  double allocations = 0.0;
  LatencyHistogram latency;
  for (std::vector<Pass>& input_passes : passes) {
    std::sort(input_passes.begin(), input_passes.end(),
              [](const Pass& a, const Pass& b) { return a.wall_s < b.wall_s; });
    const std::size_t keep = (input_passes.size() + 3) / 4;
    for (std::size_t i = 0; i < keep; ++i) {
      wall_s += input_passes[i].wall_s;
      allocations += static_cast<double>(input_passes[i].allocations);
      latency.merge(input_passes[i].latency);
    }
  }
  v.expect(!exec_s.empty() && latency.count() > 0, "no job was placed");
  if (exec_s.empty() || latency.count() == 0) return totals;
  std::printf("sessions %llu latency_samples %llu setup_samples %zu\n",
              static_cast<unsigned long long>(totals.sessions),
              static_cast<unsigned long long>(latency.count()), setups.size());
  m.add("allocs_per_s", ratio(allocations, wall_s), "1/s");
  m.add("alloc_latency_p50_ms", latency.quantile(0.5), "ms");
  m.add("alloc_latency_p999_ms", latency.quantile(0.999), "ms");
  m.add("setup_s", median(setups), "s");
  m.add("peak_rss_mb", median(rss_mb), "MB");
  m.add("sim_exec_p75_s", mapa::util::quantile(exec_s, 0.75), "sim_s");
  m.add("sim_exec_max_s", worst_exec_s, "sim_s");
  m.add("sim_makespan_s", makespan_s, "sim_s");
  return totals;
}

/// Sums of the counters one session reports, over the traced sessions.
struct TracedCounts {
  std::uint64_t jobs = 0;
  std::uint64_t placements = 0;
  std::uint64_t ticks = 0;
  std::uint64_t requests = 0;
  std::uint64_t polls = 0;
  std::uint64_t replies = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t errors = 0;
  double scheduling_ms = 0.0;
  std::uint64_t probes = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_deltas = 0;
  std::uint64_t kills = 0;
  std::uint64_t rematches = 0;
  std::uint64_t forks = 0;
  std::uint64_t dead_letters = 0;

  void add(const Session& s) {
    jobs += s.jobs;
    placements += s.result.records.size();
    ticks += s.ticks;
    requests += s.requests;
    polls += s.polls;
    replies += s.replies;
    cancelled += s.cancelled;
    errors += s.errors;
    scheduling_ms += s.result.total_scheduling_ms;
    for (const auto& server : s.result.servers) {
      probes += server.probes;
      memo_hits += server.probe_memo_hits;
      cache_hits += server.match_cache_hits;
      cache_misses += server.match_cache_misses;
      cache_deltas += server.match_cache_delta_hits;
    }
    kills += s.result.resilience.jobs_killed;
    rematches += s.result.resilience.jobs_rematched;
    forks += s.result.resilience.topology_forks;
    dead_letters += s.result.resilience.jobs_dead_lettered;
  }
};

/// The layer a span belongs to, by its category.
std::string layer_of(const std::string& key) {
  if (key.starts_with("svc/")) return "svc";
  if (key.starts_with("cache/")) return "policy";
  if (key.starts_with("match/")) return "match";
  return "cluster";  // fleet/, fault/, probe/ and the driver's cluster/
}

/// Prints each span's and each layer's share of the self time summed over
/// all threads, and the driver thread's unattributed share of wall time.
void print_layer_shares(const Attribution& a, double traced_wall_ns) {
  double all_self = 0.0;
  for (const auto& [key, t] : a.spans) all_self += static_cast<double>(t.self_ns);
  std::map<std::string, double> layers;
  std::printf("span self time (all threads), share of %.3f ms:\n",
              all_self / 1e6);
  for (const auto& [key, t] : a.spans) {
    const double self = static_cast<double>(t.self_ns);
    layers[layer_of(key)] += self;
    std::printf("  %-24s count %10llu self %8.2f%%\n", key.c_str(),
                static_cast<unsigned long long>(t.count),
                100.0 * ratio(self, all_self));
  }
  std::printf("layer self-time share:");
  for (const auto& [layer, self] : layers) {
    std::printf(" %s=%.2f%%", layer.c_str(), 100.0 * ratio(self, all_self));
  }
  std::printf(" (driver thread unattributed %.2f%% of %.3f ms)\n",
              100.0 * (1.0 - ratio(static_cast<double>(a.driver_covered_ns),
                                   traced_wall_ns)),
              traced_wall_ns / 1e6);
}

/// Per-layer run: traced and untraced sessions of input 0 alternate until
/// the budget is spent, so every session must reproduce one digest and
/// the work counters are a function of the seed. The layer replay then
/// runs on the last traced session's records.
Totals run_per_layer(const Workload& w, const Args& args, Violations& v,
                     Metrics& m) {
  const std::uint32_t driver_tid =
      static_cast<std::uint32_t>(mapa::obs::thread_slot());
  mapa::obs::ObsConfig obs_config;
  obs_config.tracing = true;
  obs_config.trace_max_events = std::size_t{1} << 21;

  Totals totals;
  TracedCounts counts;
  Attribution attribution;
  double untraced_wall_s = 0.0;
  double traced_wall_s = 0.0;
  std::uint64_t traced_sessions = 0;
  const Input input = make_input(w, 0);
  std::uint64_t reference = 0;
  mapa::cluster::FleetResult last_traced;
  const auto t0 = Clock::now();
  for (std::size_t pair = 0; pair == 0 || seconds_since(t0) < args.seconds;
       ++pair) {
    for (const bool traced : {pair % 2 == 1, pair % 2 == 0}) {
      std::shared_ptr<mapa::obs::Observer> observer;
      if (traced) observer = std::make_shared<mapa::obs::Observer>(obs_config);
      Session s = run_session(w, input, w.config.threads, observer, v);
      if (totals.sessions == 0) {
        reference = s.digest;
        print_digests({reference});
      }
      expect_digest(s, reference, traced ? "traced" : "untraced", v);
      totals.add(s);
      release_heap();
      if (!traced) {
        untraced_wall_s += s.wall_s;
        continue;
      }
      traced_wall_s += s.wall_s;
      ++traced_sessions;
      attribute(*observer->trace(), driver_tid, attribution);
      counts.add(s);
      last_traced = std::move(s.result);
    }
  }
  const ReplayStats replay =
      replay_layers(last_traced, hardware_of(w), 2000, v);
  const double traced_wall_ns = traced_wall_s * 1e9;
  print_layer_shares(attribution, traced_wall_ns);

  const double sessions = static_cast<double>(traced_sessions);
  const double jobs = static_cast<double>(counts.jobs);
  const double placements = static_cast<double>(counts.placements);
  const double ticks = static_cast<double>(counts.ticks);
  const double requests = static_cast<double>(counts.requests);
  const auto total = [&](const char* key) {
    return static_cast<double>(attribution.get(key).total_ns);
  };
  const auto self = [&](const char* key) {
    return static_cast<double>(attribution.get(key).self_ns);
  };
  const auto count = [&](const char* key) {
    return static_cast<double>(attribution.get(key).count);
  };
  const auto per_session = [&](std::uint64_t n) {
    return ratio(static_cast<double>(n), sessions);
  };

  m.add("svc.encode_ns_per_req", ratio(total("svc/encode"), requests), "ns");
  m.add("svc.ingest_ns_per_req", ratio(total("svc/ingest"), requests), "ns");
  m.add("svc.poll_ns_per_req", ratio(total("svc/poll"), requests), "ns");
  m.add("svc.poll_self_ns_per_req", ratio(self("svc/poll"), requests), "ns");
  m.add("svc.decode_reply_ns_per_reply",
        ratio(total("svc/decode_reply"), static_cast<double>(counts.replies)),
        "ns");
  m.add("svc.requests_per_poll",
        ratio(requests, static_cast<double>(counts.polls)), "count");
  m.add("svc.replies_cancelled", per_session(counts.cancelled), "count");
  m.add("svc.replies_error", per_session(counts.errors), "count");

  m.add("cluster.step_ns_per_tick", ratio(total("fleet/tick"), ticks), "ns");
  m.add("cluster.ticks", per_session(counts.ticks), "count");
  m.add("cluster.dispatch_us_per_job",
        ratio(counts.scheduling_ms * 1000.0, placements), "us");
  m.add("cluster.tick_self_ns_per_tick", ratio(self("fleet/tick"), ticks),
        "ns");
  m.add("cluster.commit_ns_per_commit",
        ratio(total("fleet/commit"), count("fleet/commit")), "ns");
  m.add("cluster.route_ns_per_job", ratio(total("fleet/route"), jobs), "ns");
  m.add("cluster.probe_fanout_self_ns_per_job",
        ratio(self("fleet/probe_fanout"), placements), "ns");
  m.add("cluster.probes_per_job",
        ratio(static_cast<double>(counts.probes), placements), "count");
  m.add("cluster.memo_hit_rate",
        ratio(static_cast<double>(counts.memo_hits),
              static_cast<double>(counts.probes + counts.memo_hits)),
        "ratio");
  m.add("cluster.fault_ns_total",
        ratio(static_cast<double>(attribution.sum_prefix("fault/").total_ns),
              sessions),
        "ns");
  m.add("cluster.kills", per_session(counts.kills), "count");
  m.add("cluster.rematches", per_session(counts.rematches), "count");
  m.add("cluster.topology_forks", per_session(counts.forks), "count");
  m.add("cluster.dead_letters", per_session(counts.dead_letters), "count");

  const double lookups = static_cast<double>(
      counts.cache_hits + counts.cache_misses + counts.cache_deltas);
  m.add("policy.cache_lookups_per_job", ratio(lookups, placements), "count");
  m.add("policy.cache_hit_rate",
        ratio(static_cast<double>(counts.cache_hits), lookups), "ratio");
  m.add("policy.cache_delta_rate",
        ratio(static_cast<double>(counts.cache_deltas), lookups), "ratio");
  m.add("policy.cache_miss_rate",
        ratio(static_cast<double>(counts.cache_misses), lookups), "ratio");
  m.add("policy.cache_lookup_self_ns_per_lookup",
        ratio(self("cache/lookup"), count("cache/lookup")), "ns");
  const double calls = static_cast<double>(replay.calls);
  const double matches = static_cast<double>(replay.matches);
  m.add("policy.allocate_ns_per_call",
        ratio(static_cast<double>(replay.allocate_ns), calls), "ns");
  m.add("policy.score_ns_per_match",
        ratio(static_cast<double>(replay.allocate_ns) -
                  static_cast<double>(replay.count_ns),
              matches),
        "ns");

  m.add("match.enumerate_self_ns_per_call",
        ratio(self("match/enumerate"), count("match/enumerate")), "ns");
  m.add("match.enumerate_calls_per_job",
        ratio(count("match/enumerate"), placements), "count");
  m.add("match.count_ns_per_call",
        ratio(static_cast<double>(replay.count_ns), calls), "ns");
  m.add("match.matches_per_call", ratio(matches, calls), "count");

  m.add("obs.trace_overhead_pct",
        100.0 * (ratio(traced_wall_s, untraced_wall_s) - 1.0), "%");
  m.add("obs.trace_dropped", static_cast<double>(attribution.dropped),
        "count");
  m.add("obs.unattributed_pct",
        100.0 * (1.0 - ratio(static_cast<double>(
                                 attribution.driver_covered_ns),
                             traced_wall_ns)),
        "%");
  m.add("failed_frac",
        ratio(static_cast<double>(totals.failed),
              static_cast<double>(totals.attempted)),
        "ratio");
  v.expect(attribution.dropped == 0, "the trace sink dropped events");
  return totals;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
  try {
    const Workload w = make_workload(args.workload, args.seed);
    print_context(w, args);
    Violations v;
    Metrics m;
    const Totals totals = args.trace ? run_per_layer(w, args, v, m)
                                     : run_end_to_end(w, args, v, m);
    m.print_table();
    for (const std::string& item : v.items) {
      std::printf("VIOLATION %s\n", item.c_str());
    }
    if (v.total > v.items.size()) {
      std::printf("VIOLATION ... and %zu more\n", v.total - v.items.size());
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        v.total == 0 ? "true" : "false",
        static_cast<unsigned long long>(totals.attempted),
        static_cast<unsigned long long>(totals.failed), m.json().c_str());
    std::fflush(stdout);
    return v.total == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
