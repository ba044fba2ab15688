#pragma once
// The benchmark's three workloads and the session runner that drives
// them through the library's public entry points. A session builds the
// service or fleet (timed as set-up), serves one input, finishes the
// session and checks its outputs. A session that serves an input again
// must reproduce its records — and their digest — exactly; README.md
// explains why each workload exists.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis.hpp"
#include "cluster/fleet.hpp"
#include "obs/obs.hpp"
#include "svc/wire.hpp"
#include "workload/job.hpp"

namespace perfbench {

/// A workload's fixed part: servers and fleet configuration.
struct Workload {
  std::string name;
  /// True for the allocation-daemon workload, false for batch fleet runs.
  bool daemon = false;
  std::uint64_t seed = 0;
  std::vector<mapa::cluster::ServerSpec> servers;
  /// Fleet configuration; `threads` is the measured probe thread count.
  /// Fault events come with each input.
  mapa::cluster::ClusterConfig config;
  /// Requests the daemon client keeps outstanding.
  std::size_t outstanding = 64;
};

/// One session's input, generated from the workload seed and the input
/// index, so a run serves several independent draws of the workload.
struct Input {
  /// Batch input: every job is submitted before the first step.
  std::vector<mapa::workload::Job> jobs;
  /// Daemon input, in the order the closed-loop client sends it. Request
  /// ids are 1..n, so requests[id - 1] is the request with that id.
  std::vector<mapa::svc::Request> requests;
  std::vector<mapa::cluster::FaultEvent> events;
};

/// Builds a workload's servers and configuration. Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Input number `index` of the workload; a pure function of the
/// workload's seed and `index`.
Input make_input(const Workload& workload, std::size_t index);

/// Each server's pristine topology, in fleet order.
std::vector<const mapa::graph::Graph*> hardware_of(const Workload& workload);

/// What one session produced.
struct Session {
  double setup_s = 0.0;  // service or fleet construction (plus start())
  double wall_s = 0.0;   // serving time after set-up, finish() included
  std::uint64_t attempted = 0;    // requests (daemon) or jobs (batch)
  std::uint64_t jobs = 0;         // jobs submitted: allocates or the job list
  std::uint64_t failed = 0;       // see README.md, "Failures"
  std::uint64_t allocations = 0;  // allocate replies or placements
  LatencyHistogram latency;       // one sample per allocation, in ms
  std::uint64_t ticks = 0;
  // Daemon client tallies (zero for batch workloads).
  std::uint64_t requests = 0;
  std::uint64_t polls = 0;
  std::uint64_t replies = 0;
  std::uint64_t cancelled = 0;  // kCancelled caused by the client's release
  std::uint64_t errors = 0;     // every other error reply
  mapa::cluster::FleetResult result;
  std::uint64_t digest = 0;
};

/// Runs one session with `threads` probe threads and the given observer
/// (null = untraced), checking outputs into `violations`.
Session run_session(const Workload& workload, const Input& input,
                    std::size_t threads,
                    std::shared_ptr<mapa::obs::Observer> observer,
                    Violations& violations);

/// Construction cost alone: builds the service or fleet and opens its
/// session. Returns seconds.
double measure_setup(const Workload& workload, const Input& input);

}  // namespace perfbench
