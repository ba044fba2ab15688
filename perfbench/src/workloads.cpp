#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>
#include <variant>

#include "analysis.hpp"
#include "cluster/chaos.hpp"
#include "graph/topology.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace perfbench {

using namespace mapa;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Session sizes. On a 4-core x86 host a daemon session takes ~0.3 s and
// a batch session 1.5-2.5 s, so a 30 s run serves every input at least
// once and pools 10k+ latency samples.
constexpr std::size_t kDaemonRequests = 48'000;
constexpr std::size_t kChurnJobsPerServer = 2;
// churn_1k's job lengths stay Pareto but are capped at 10x (preset: 50x).
// At 50x the longest job of an input sets both its worst execution time
// and its makespan, and those spread 20% and 13% across seeds.
constexpr double kChurnDurationTailCap = 10.0;
// paper16_faults follows the paper's methodology: one fixed job file
// (paper 1-5 GPU mix) queued at time 0; the seed draws the fault schedule.
// The job file is fixed because its order decides how many large patterns
// meet near-empty 16-GPU servers (a 5-GPU chain has 262k matches to score
// there), which moved one seeded input's cost 6x. 800 jobs rather than
// the paper's 300: the worst execution time comes from a rare placement
// under fragmentation, and at 300 jobs an input met it or not by chance
// (sim_exec_max_s spread 35% across seeds). The jobs keep the 256 GPUs
// busy for ~6400 simulated seconds. Per-server MTBF 3000 s with 60 s
// repairs injects ~34 GPU losses and link faults over that span; they
// kill, requeue and re-match jobs and fork topologies onto private
// caches. The retry budget is raised from 3 to 8 so that no job is
// dead-lettered (a dead letter is a failed job). Heavier schedules made
// an input's fault draw set its cost: with crashes (a crash empties a
// server, and refilling it costs seconds of enumeration) allocs_per_s
// spread 25% across ten seeds; with 170 faults per input and no crashes,
// 29%, one seed running at half the rate of the others.
constexpr std::size_t kPaperJobs = 800;
constexpr std::uint64_t kPaperJobFileSeed = 42;
constexpr double kPaperHorizonS = 6'400.0;
constexpr double kPaperServerMtbfS = 3'000.0;
constexpr double kPaperMttrS = 60.0;

std::vector<cluster::ServerSpec> one_archetype(std::size_t servers,
                                               graph::Graph topology) {
  cluster::FleetArchetype arch;
  arch.name = topology.name();
  arch.topology = graph::TopologyHandle(std::move(topology));
  arch.policy = "preserve";
  return cluster::archetype_fleet_specs(servers, {arch});
}

/// The closed-loop client's request script: ~70.9% allocate (paper 1-5
/// GPU mix), 25% query of an earlier job, 4% release of the previous
/// allocate, 0.1% stats. The script does not depend on replies, so the
/// whole session is a pure function of the seed.
std::vector<svc::Request> daemon_script(std::size_t count,
                                        std::uint64_t seed) {
  workload::GeneratorConfig gen;
  gen.num_jobs = count;
  gen.seed = seed;
  const std::vector<workload::Job> jobs = workload::generate_jobs(gen);
  util::Rng rng(seed ^ 0xD1B54A32D192ED03ULL);
  std::vector<svc::Request> script;
  script.reserve(count);
  std::vector<std::int32_t> allocated;
  for (std::size_t i = 0; i < count; ++i) {
    svc::Request request;
    request.id = static_cast<std::uint64_t>(i) + 1;
    const double u = rng.uniform();
    if (u < 0.001) {
      request.payload = svc::StatsRequest{};
    } else if (u < 0.041 && !allocated.empty()) {
      request.payload = svc::ReleaseRequest{allocated.back()};
    } else if (u < 0.291 && !allocated.empty()) {
      const auto pick = rng.uniform_int(
          0, static_cast<std::int64_t>(allocated.size()) - 1);
      request.payload =
          svc::QueryRequest{allocated[static_cast<std::size_t>(pick)]};
    } else {
      workload::Job job = jobs[allocated.size()];
      // Lengths differ by up to 1%, so execution times are not a few
      // repeated values; placements do not depend on them (every poll
      // places its batch on an idle fleet).
      job.iter_scale = rng.uniform(0.99, 1.01);
      allocated.push_back(job.id);
      request.payload = svc::AllocateRequest::from_job(job);
    }
    script.push_back(std::move(request));
  }
  return script;
}

std::size_t churn_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

Session run_daemon(const Workload& w, const Input& in,
                   cluster::ClusterConfig config, Violations& v) {
  constexpr std::uint64_t kClient = 1;
  Session s;
  svc::ServiceConfig service_config;
  service_config.cluster = std::move(config);
  obs::TraceSink* const sink =
      obs::trace_of(service_config.cluster.observer);

  const auto t_setup = Clock::now();
  svc::AllocationService service(w.servers, service_config);
  s.setup_s = seconds_since(t_setup);

  const std::size_t n = in.requests.size();
  std::vector<Clock::time_point> sent(n + 1);
  std::vector<std::uint8_t> answered(n + 1, 0);
  std::unordered_set<std::int32_t> released;
  std::uint64_t queued_releases = 0;
  std::size_t next = 0;
  std::size_t in_flight = 0;
  std::vector<svc::Outbound> out;
  std::vector<std::uint8_t> frame;

  const auto t_start = Clock::now();
  while (next < n || in_flight > 0) {
    while (in_flight < w.outstanding && next < n) {
      const svc::Request& request = in.requests[next++];
      {
        obs::Span span(sink, "svc", "encode");
        frame = svc::encode(request);
      }
      sent[request.id] = Clock::now();
      bool stream_ok = true;
      {
        obs::Span span(sink, "svc", "ingest");
        stream_ok = service.ingest(kClient, frame.data(), frame.size(), out);
      }
      if (!stream_ok) v.fail("daemon: a well-formed frame poisoned the stream");
      if (const auto* release =
              std::get_if<svc::ReleaseRequest>(&request.payload)) {
        released.insert(release->job_id);
      }
      if (std::holds_alternative<svc::AllocateRequest>(request.payload)) {
        ++s.jobs;
      }
      ++in_flight;
      ++s.requests;
    }
    {
      obs::Span span(sink, "svc", "poll");
      service.poll(out);
    }
    ++s.polls;
    const auto t_reply = Clock::now();
    if (out.empty()) {
      v.fail("daemon: poll answered none of " + std::to_string(in_flight) +
             " outstanding requests");
      break;
    }
    for (const svc::Outbound& o : out) {
      svc::DecodedReply decoded;
      {
        obs::Span span(sink, "svc", "decode_reply");
        decoded = svc::decode_reply(o.frame.data() + 4, o.frame.size() - 4);
      }
      const svc::Reply* reply = std::get_if<svc::Reply>(&decoded);
      if (reply == nullptr) {
        v.fail("daemon: a reply frame does not decode");
        continue;
      }
      ++s.replies;
      const std::uint64_t id = reply->id;
      if (id == 0 || id > n || answered[id] != 0) {
        v.fail("daemon: reply for unknown or already answered id " +
               std::to_string(id));
        continue;
      }
      answered[id] = 1;
      --in_flight;
      const svc::RequestPayload& asked = in.requests[id - 1].payload;
      if (const auto* error = std::get_if<svc::ErrorReply>(&reply->payload)) {
        const auto* alloc = std::get_if<svc::AllocateRequest>(&asked);
        if (error->code == svc::ErrorCode::kCancelled && alloc != nullptr &&
            released.contains(alloc->job_id)) {
          ++s.cancelled;
        } else {
          ++s.errors;
        }
        continue;
      }
      bool kind_matches = false;
      std::visit(
          [&](const auto& payload) {
            using T = std::decay_t<decltype(payload)>;
            if constexpr (std::is_same_v<T, svc::AllocateReply>) {
              const auto* a = std::get_if<svc::AllocateRequest>(&asked);
              kind_matches = a != nullptr && a->job_id == payload.job_id &&
                             payload.gpus.size() == a->num_gpus;
              ++s.allocations;
              s.latency.add(ms_between(sent[id], t_reply));
            } else if constexpr (std::is_same_v<T, svc::ReleaseReply>) {
              const auto* r = std::get_if<svc::ReleaseRequest>(&asked);
              kind_matches = r != nullptr && r->job_id == payload.job_id;
              if (payload.outcome == 1) ++queued_releases;
            } else if constexpr (std::is_same_v<T, svc::QueryReply>) {
              const auto* q = std::get_if<svc::QueryRequest>(&asked);
              kind_matches = q != nullptr && q->job_id == payload.job_id;
            } else if constexpr (std::is_same_v<T, svc::StatsReply>) {
              kind_matches = std::holds_alternative<svc::StatsRequest>(asked);
            }
          },
          reply->payload);
      if (!kind_matches) {
        v.fail("daemon: reply " + std::to_string(id) +
               " does not answer its request");
      }
    }
    out.clear();
  }
  s.ticks = service.fleet().ticks();
  s.result = service.finish();
  s.wall_s = seconds_since(t_start);

  for (std::size_t id = 1; id <= n; ++id) {
    if (answered[id] == 0) {
      v.fail("daemon: request " + std::to_string(id) + " was never answered");
    }
  }
  // Job conservation: every allocate became a record, a dead letter, a
  // cancel by the client's own release, or an error reply.
  v.expect(s.result.records.size() + s.result.dead_letters.size() +
                   s.cancelled + s.errors ==
               s.jobs,
           "daemon: records + dead letters + cancels + errors != allocates");
  v.expect(s.cancelled == queued_releases,
           "daemon: cancels do not match releases of queued jobs");
  s.attempted = s.requests;
  s.failed = s.errors;
  check_gpu_conservation(s.result, hardware_of(w), v);
  return s;
}

Session run_batch(const Workload& w, const Input& in,
                  cluster::ClusterConfig config, Violations& v) {
  Session s;
  obs::TraceSink* const sink = obs::trace_of(config.observer);
  cluster::FleetSimulator::StepOptions options;
  options.collect_unplaceable = true;
  options.expected_jobs = in.jobs.size();

  const auto t_setup = Clock::now();
  cluster::FleetSimulator fleet(w.servers, std::move(config));
  fleet.start(options);
  s.setup_s = seconds_since(t_setup);

  const auto t_start = Clock::now();
  {
    obs::Span span(sink, "cluster", "submit");
    for (const workload::Job& job : in.jobs) fleet.submit(job);
  }
  std::size_t unplaceable = 0;
  bool live = true;
  while (live) {
    {
      obs::Span span(sink, "cluster", "step");
      live = fleet.step();
    }
    unplaceable += fleet.take_unplaceable().size();
  }
  s.ticks = fleet.ticks();
  {
    obs::Span span(sink, "cluster", "finish");
    s.result = fleet.finish();
  }
  s.wall_s = seconds_since(t_start);

  s.attempted = in.jobs.size();
  s.jobs = in.jobs.size();
  s.allocations = s.result.records.size();
  // A batch run has no client waiting on a reply, so a job's allocation
  // latency is the wall-clock cost of its placement decision (probe
  // fan-out plus server selection, as the fleet measures it per record):
  // the per-decision overhead of the paper's Fig. 19.
  for (const cluster::FleetRecord& r : s.result.records) {
    s.latency.add(r.record.scheduling_overhead_ms);
  }
  s.failed = s.result.dead_letters.size() + unplaceable;
  v.expect(s.result.records.size() + s.result.dead_letters.size() +
                   unplaceable ==
               in.jobs.size(),
           "batch: records + dead letters + unplaceable != submitted jobs");
  check_gpu_conservation(s.result, hardware_of(w), v);
  return s;
}

}  // namespace

std::vector<const graph::Graph*> hardware_of(const Workload& w) {
  std::vector<const graph::Graph*> hardware;
  hardware.reserve(w.servers.size());
  for (const cluster::ServerSpec& spec : w.servers) {
    hardware.push_back(&spec.topology.graph());
  }
  return hardware;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "daemon_closed64") {
    w.daemon = true;
    w.servers = one_archetype(64, graph::dgx1_v100());
    w.config.selection = "first-fit";
    w.config.shards = 4;
    w.config.threads = 1;
  } else if (name == "churn_1k") {
    w.servers = one_archetype(1000, graph::dgx1_v100());
    w.config.selection = "least-loaded";
    w.config.shards = 32;
    w.config.threads = churn_threads();
  } else if (name == "paper16_faults") {
    cluster::FleetArchetype torus;
    torus.topology = graph::TopologyHandle(graph::torus2d_16());
    cluster::FleetArchetype cubemesh;
    cubemesh.topology = graph::TopologyHandle(graph::cubemesh_16());
    w.servers = cluster::archetype_fleet_specs(16, {torus, cubemesh});
    w.config.selection = "best-score";
    w.config.shards = 1;
    w.config.threads = 1;
    w.config.max_retries = 8;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

Input make_input(const Workload& w, std::size_t index) {
  // Independent streams per input index (splitmix-style mixing).
  const std::uint64_t seed =
      util::Rng(w.seed * 0x9E3779B97F4A7C15ULL + index).next_u64();
  Input in;
  if (w.name == "daemon_closed64") {
    in.requests = daemon_script(kDaemonRequests, seed);
  } else if (w.name == "churn_1k") {
    workload::FleetTraceConfig trace = workload::fleet_scale_trace_config(
        w.servers.size(), kChurnJobsPerServer, seed);
    trace.duration_tail_cap = kChurnDurationTailCap;
    in.jobs = workload::generate_fleet_trace(trace);
  } else {
    workload::GeneratorConfig gen;
    gen.num_jobs = kPaperJobs;
    gen.seed = kPaperJobFileSeed;
    in.jobs = workload::generate_jobs(gen);
    workload::ChaosTraceConfig chaos = workload::chaos_trace_config(
        w.servers.size(), kPaperServerMtbfS, seed);
    chaos.mttr_s = kPaperMttrS;
    chaos.server_crash_weight = 0.0;
    chaos.horizon_s = kPaperHorizonS;
    in.events = cluster::generate_fault_schedule(chaos, w.servers);
  }
  return in;
}

Session run_session(const Workload& workload, const Input& input,
                    std::size_t threads,
                    std::shared_ptr<obs::Observer> observer,
                    Violations& violations) {
  cluster::ClusterConfig config = workload.config;
  config.threads = threads;
  config.events = input.events;
  config.observer = std::move(observer);
  Session s = workload.daemon
                  ? run_daemon(workload, input, std::move(config), violations)
                  : run_batch(workload, input, std::move(config), violations);
  s.digest = record_digest(s.result);
  return s;
}

double measure_setup(const Workload& workload, const Input& input) {
  cluster::ClusterConfig config = workload.config;
  config.events = input.events;
  const auto t0 = Clock::now();
  if (workload.daemon) {
    svc::ServiceConfig service_config;
    service_config.cluster = std::move(config);
    svc::AllocationService service(workload.servers, service_config);
    return seconds_since(t0);
  }
  cluster::FleetSimulator fleet(workload.servers, std::move(config));
  fleet.start(cluster::FleetSimulator::StepOptions{
      .arm_faults = false, .collect_unplaceable = true,
      .expected_jobs = input.jobs.size()});
  return seconds_since(t0);
}

}  // namespace perfbench
