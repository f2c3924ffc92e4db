// The open-loop load generator. One spinning arrival thread (the caller)
// sends every scheduled request at its due time, whatever is still in
// flight; one spinning completion thread stamps each future the moment
// it is ready. A request is timed from when it was due, so a stall of the
// server (or of the generator itself) is charged to every request it
// delays. Apply batches are issued inline by the arrival thread; their
// cost shows up as generator lateness, which is reported.
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/query_engine.h"
#include "live/live_engine.h"
#include "server/server.h"
#include "workload.h"

namespace perfbench {

/// What one scheduled request did. Times are NowNs() readings.
struct Record {
  int64_t submit_ns = 0;  ///< Submit*/Apply called
  int64_t done_ns = 0;    ///< future ready, or Apply returned
  int64_t first_ns = 0;   ///< streams: the rank-0 callback
  bool ok = false;
  std::string error;
  /// From the returned ExecStats.
  uint64_t epoch = 0;
  uint64_t pulls = 0;
  uint64_t combinations = 0;
  uint64_t bound_updates = 0;
  uint64_t qp_solves = 0;
  uint64_t lp_solves = 0;
  uint64_t partial_hits = 0;
  uint64_t resumes = 0;
  /// Pages only.
  uint64_t page_start = 0;
  uint64_t page_cost_depths = 0;
  /// Kept for the correctness oracle on sampled requests only.
  bool sampled = false;
  std::vector<prj::ResultCombination> combos;
};

struct PhaseConfig {
  /// Carry each request's id (op index + 1) in options.scatter_hint for
  /// the span tracer (trace.h).
  bool tag_requests = false;
  /// Keep the answers of every n-th TopK/stream request and of every page
  /// of every n-th session for the oracle; 0 keeps none.
  uint32_t sample_every = 0;
  /// Cut the phase into this many equal windows of `seconds` / windows
  /// and record the host's CPU steal in each (PhaseResult::window_steal).
  int windows = 1;
  double seconds = 0.0;
};

struct PhaseResult {
  std::vector<Record> records;  ///< parallel to Schedule::ops
  int64_t t0_ns = 0;            ///< phase start; due times are relative
  double elapsed_s = 0.0;       ///< first due time to last completion
  /// Requests still in flight when the last one was sent.
  size_t backlog = 0;
  /// Generator lateness (sent - due) of every request not deferred.
  std::vector<double> late_ms;
  /// Share of CPU time the hypervisor stole during each window.
  std::vector<double> window_steal;
  prj::ServerStats server;
  size_t page_sessions = 0;
  prj::CacheCounters cache_before, cache_after;
  prj::LiveCounters live_before, live_after;
};

/// Worker threads of every Server the benchmark runs.
inline constexpr int kServerWorkers = 2;

/// Serves `schedule` through a fresh kServerWorkers Server over `top`; Apply
/// batches go to `live` (may be null when the schedule has none).
PhaseResult RunPhase(const prj::QueryEngine& top, prj::LiveEngine* live,
                     const Schedule& schedule, const ApplyLog& log,
                     const PhaseConfig& config);

/// The options every request of the benchmark runs with: TBPA at `k`.
prj::ProxRJOptions RequestOptions(int k);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
