// serving_bench: open-loop TopK / page / stream / Apply traffic through
// Server -> CachedEngine -> LiveEngine -> Engine (R-tree), with
// end-to-end latency, capacity under a p99 limit and, in the traced run,
// a per-layer span breakdown. perfbench/run.py builds and runs it; see
// BENCHMARK.json at the repository root for the workloads and metrics.
//
//   serving_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out-dir <dir>] [--git-sha <sha>]
//
// The last line of stdout is a JSON object with every metric measured.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cached_engine.h"
#include "core/scoring.h"
#include "host.h"
#include "live/live_engine.h"
#include "load.h"
#include "oracle.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

/// setup_s is the median of three groups of kSetupsPerGroup stack builds:
/// one group before the nominal phase, one after it and one after the
/// capacity ladder. A VM's speed can wander by tens of percent from one
/// second to the next, and groups far apart in time sample more of it.
constexpr int kSetupsPerGroup = 3;
constexpr double kWarmupSeconds = 1.0;
/// Rung i of the capacity ladder offers the nominal rate times
/// kLadderStep^i; the nominal phase is rung 0. The search first tries the
/// rung just below kLadderStart times the capacity the nominal phase
/// suggests. Each rung is judged on the same windowed p99 as the nominal
/// phase, over kRungWindows windows.
constexpr double kLadderStart = 0.8;
constexpr double kLadderStep = 1.15;
constexpr int kRungAttempts = 3;
constexpr int kRungWindows = 4;
/// Rung runs the whole ladder may make, retries included.
constexpr int kMaxRungRuns = 8;
/// Before a rung runs again after failing under contention, the host is
/// warmed until it is calm again (WarmHost), up to this many times a run.
constexpr int kMaxCalmWaits = 2;
/// Stolen CPU share up to which a window or rung counts as calm.
constexpr double kCalmSteal = 0.01;
/// Shares of --seconds: the nominal phase, and one ladder rung.
constexpr double kNominalShare = 0.45;
constexpr double kRungShare = 0.12;
/// The nominal phase is cut into equal windows, and the hypervisor's CPU
/// steal is read in each. When any window saw contention (steal above
/// kCalmSteal), latency quantiles pool only the calmer half of the
/// windows, so a burst of host contention moves neither the result nor
/// its spread; otherwise they pool every window. Each window should hold
/// about kWindowTopK TopK requests, within [kMinWindows, kMaxWindows].
constexpr size_t kWindowTopK = 1000;
constexpr int kMinWindows = 3;
constexpr int kMaxWindows = 10;
/// The oracle checks every n-th TopK/stream answer (and every page of
/// every 8th session); live_churn samples densely because its answers
/// spread over hundreds of epochs and only kOracleEpochs get an oracle.
constexpr uint32_t kSampleEvery = 40;
constexpr uint32_t kSampleEveryLive = 8;
constexpr size_t kOracleEpochs = 12;
/// Generator lateness, or share of CPU stolen over the whole run, beyond
/// which the run is marked degraded.
constexpr double kLateLimitMs = 1.0;
constexpr double kDegradedSteal = 0.05;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  size_t samples = 0;  ///< raw samples behind a quantile or mean; 0: a count
};

class Report {
 public:
  void Add(std::string name, std::string unit, double value,
           size_t samples = 0) {
    metrics_.push_back({std::move(name), std::move(unit), value, samples});
  }
  void Print(const char* title) const {
    std::printf("%s\n", title);
    for (const Metric& m : metrics_) {
      if (m.samples > 0) {
        std::printf("  %-32s %14.6f %-6s n=%zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
      } else {
        std::printf("  %-32s %14.6f %-6s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
  }
  std::string Json() const {
    std::string out = "{";
    for (const Metric& m : metrics_) {
      if (out.size() > 1) out += ", ";
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(m.value) ? m.value : -1.0);
      out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
             m.unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

/// The served stack. With a tracer, spans wrap the cache from above, the
/// live layer from above, and every base engine the factory builds.
struct Stack {
  std::unique_ptr<prj::LiveEngine> live;
  std::unique_ptr<TracedEngine> live_traced;
  std::unique_ptr<prj::CachedEngine> cached;
  std::unique_ptr<TracedEngine> cache_traced;
  const prj::QueryEngine* top = nullptr;
};

std::unique_ptr<Stack> BuildStack(const Dataset& data,
                                  const prj::ScoringFunction* scoring,
                                  Tracer* tracer) {
  auto owned = std::make_unique<Stack>();
  Stack& stack = *owned;
  prj::BaseEngineFactory factory = prj::LiveEngine::MonolithicFactory(
      prj::AccessKind::kDistance, scoring);
  if (tracer != nullptr) factory = TracedFactory(std::move(factory), tracer);
  auto live = prj::LiveEngine::Create(data.relations,
                                      prj::AccessKind::kDistance, scoring,
                                      std::move(factory));
  if (!live.ok()) {
    std::fprintf(stderr, "LiveEngine::Create: %s\n",
                 live.status().ToString().c_str());
    std::exit(1);
  }
  stack.live = std::move(live).value();
  const prj::QueryEngine* below_cache = stack.live.get();
  if (tracer != nullptr) {
    stack.live_traced =
        std::make_unique<TracedEngine>(stack.live.get(), Layer::kLive, tracer);
    below_cache = stack.live_traced.get();
  }
  stack.cached = std::make_unique<prj::CachedEngine>(below_cache);
  stack.top = stack.cached.get();
  if (tracer != nullptr) {
    stack.cache_traced =
        std::make_unique<TracedEngine>(stack.cached.get(), Layer::kCache, tracer);
    stack.top = stack.cache_traced.get();
  }
  return owned;
}

/// Set-up time: relations in memory to the first accepted request.
double TimeSetup(const Dataset& data, const prj::ScoringFunction* scoring,
                 std::unique_ptr<Stack>* stack) {
  const int64_t start = NowNs();
  *stack = BuildStack(data, scoring, nullptr);
  prj::ServerOptions options;
  options.num_workers = kServerWorkers;
  prj::Server server((*stack)->top, options);
  prj::QueryRequest request;
  request.query = data.pool.front();
  request.options = RequestOptions(10);
  auto first = server.Submit(request);
  const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
  if (!first.get().ok()) {
    std::fprintf(stderr, "first request failed\n");
    std::exit(1);
  }
  return seconds;
}

bool IsPage(OpKind kind) {
  return kind == OpKind::kPageNew || kind == OpKind::kPageNext;
}

/// Raw latencies (ms, from due time) of one operation, with the window
/// of the phase each request was due in.
struct Series {
  /// Per window: whether its samples count.
  std::vector<bool> counted;
  std::vector<double> ms;
  std::vector<int> window;
  void Add(double value, int w) {
    ms.push_back(value);
    window.push_back(w);
  }
  size_t size() const { return ms.size(); }
};

/// The q-quantile of the samples in the counted windows.
double WindowedQuantile(const Series& series, double q) {
  std::vector<double> counted;
  for (size_t i = 0; i < series.size(); ++i) {
    if (series.counted[static_cast<size_t>(series.window[i])]) {
      counted.push_back(series.ms[i]);
    }
  }
  return Quantile(counted, q);
}

/// One phase's latencies by operation.
struct Latencies {
  Series topk, page, stream_first, stream, apply;
  size_t attempted = 0;
  size_t failed = 0;
  std::string first_error;
};

/// How many windows the nominal phase of `schedule` is cut into.
int WindowCount(const Schedule& schedule) {
  size_t topk = 0;
  for (const Op& op : schedule.ops) topk += op.kind == OpKind::kTopK ? 1 : 0;
  return std::clamp(static_cast<int>(topk / kWindowTopK), kMinWindows,
                    kMaxWindows);
}

Latencies CollectLatencies(const Schedule& schedule, const PhaseResult& phase,
                           double seconds) {
  Latencies out;
  const int windows = std::max<int>(1, static_cast<int>(phase.window_steal.size()));
  // The calmer half: windows ranked by stolen CPU, ties by position.
  std::vector<int> order(static_cast<size_t>(windows));
  for (int w = 0; w < windows; ++w) order[static_cast<size_t>(w)] = w;
  if (!phase.window_steal.empty()) {
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return phase.window_steal[static_cast<size_t>(a)] <
             phase.window_steal[static_cast<size_t>(b)];
    });
  }
  // Count every window when none of them saw contention (or there is no
  // steal accounting at all).
  bool calm = true;
  for (double steal : phase.window_steal) calm = calm && steal <= kCalmSteal;
  std::vector<bool> counted(static_cast<size_t>(windows), calm);
  for (int i = 0; i < (windows + 1) / 2; ++i) {
    counted[static_cast<size_t>(order[static_cast<size_t>(i)])] = true;
  }
  for (Series* series : {&out.topk, &out.page, &out.stream_first,
                         &out.stream, &out.apply}) {
    series->counted = counted;
  }
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    const Op& op = schedule.ops[i];
    const Record& rec = phase.records[i];
    ++out.attempted;
    if (!rec.ok) {
      ++out.failed;
      if (out.first_error.empty()) out.first_error = rec.error;
      continue;
    }
    const int64_t due = phase.t0_ns + op.due_ns;
    const double ms = static_cast<double>(rec.done_ns - due) * 1e-6;
    const int w = std::min(
        windows - 1, static_cast<int>(static_cast<double>(op.due_ns) * 1e-9 /
                                      seconds * windows));
    switch (op.kind) {
      case OpKind::kTopK:
        out.topk.Add(ms, w);
        break;
      case OpKind::kPageNew:
      case OpKind::kPageNext:
        out.page.Add(ms, w);
        break;
      case OpKind::kStream:
        out.stream.Add(ms, w);
        if (rec.first_ns > 0) {
          out.stream_first.Add(static_cast<double>(rec.first_ns - due) * 1e-6,
                               w);
        }
        break;
      case OpKind::kApply:
        out.apply.Add(ms, w);
        break;
    }
  }
  return out;
}

void AppendSamples(const Schedule& schedule, const PhaseResult& phase,
                   std::vector<Sample>* out) {
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    const Op& op = schedule.ops[i];
    const Record& rec = phase.records[i];
    if (!rec.sampled || !rec.ok) continue;
    Sample s;
    s.kind = op.kind;
    s.query = schedule.queries[op.query];
    s.start = IsPage(op.kind) ? rec.page_start : 0;
    s.expected = static_cast<uint64_t>(op.k);
    s.epoch = rec.epoch;
    s.combos = rec.combos;
    out->push_back(std::move(s));
  }
}

/// Work counters summed over a phase's TopK answers.
struct WorkSums {
  uint64_t topk = 0, pulls = 0, combinations = 0, bound_updates = 0, qp = 0,
           lp = 0;
  bool operator==(const WorkSums&) const = default;
};

WorkSums SumTopKWork(const Schedule& schedule, const PhaseResult& phase) {
  WorkSums sums;
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    if (schedule.ops[i].kind != OpKind::kTopK) continue;
    const Record& rec = phase.records[i];
    ++sums.topk;
    sums.pulls += rec.pulls;
    sums.combinations += rec.combinations;
    sums.bound_updates += rec.bound_updates;
    sums.qp += rec.qp_solves;
    sums.lp += rec.lp_solves;
  }
  return sums;
}

std::string FormatSums(const WorkSums& s) {
  return "topk=" + std::to_string(s.topk) + " pulls=" + std::to_string(s.pulls) +
         " combinations=" + std::to_string(s.combinations) +
         " bound_updates=" + std::to_string(s.bound_updates) +
         " qp=" + std::to_string(s.qp) + " lp=" + std::to_string(s.lp);
}

/// One rung of the capacity ladder, as judged from one phase.
struct Rung {
  int index = 0;
  double rate = 0.0;
  double p99 = 0.0;
  bool passed = false;
};

/// A phase at `rate` passes when its windowed TopK p99 stays under the
/// limit, no request failed, and no backlog grew: more in flight at the
/// last arrival than the limit's worth of arrivals means the queue grew.
Rung Judge(const WorkloadSpec& spec, int index, double rate,
           const Latencies& lat, size_t backlog) {
  Rung out{index, rate, WindowedQuantile(lat.topk, 0.99), false};
  const bool growing =
      static_cast<double>(backlog) > rate * spec.p99_limit_ms * 1e-3;
  out.passed = out.p99 <= spec.p99_limit_ms && !growing && lat.failed == 0;
  return out;
}

struct Capacity {
  double qps = 0.0;  ///< 0: no rung passed
  /// A passing rung and the failing rung just above it were both found.
  bool bracketed = false;
};

/// The highest rate of the ladder whose topk_p99_ms stays under the limit
/// with no growing backlog, refined between that rung and the failing one
/// above it by interpolating log(p99) linearly in rate. The search climbs
/// two rungs at a time from a passing rung, bisects between a passing and
/// a failing rung, and descends below a failing nominal rate, until a
/// passing rung and the failing rung just above it are known. If
/// kMaxRungRuns runs are spent first, it reports the highest passing rung
/// and the run is marked degraded. A failing rung is run again, up to
/// kRungAttempts times, and fails only when it has failed twice while the
/// hypervisor stole little CPU, so neither one stall nor a burst of host
/// contention decides it.
Capacity MaxQps(const WorkloadSpec& spec, const Dataset& data, uint64_t seed,
                double rung_seconds, double capacity_guess,
                const Rung& nominal, const Stack& stack, ApplyLog* log,
                Latencies* totals) {
  uint64_t rung_seed = seed * 7919 + 100;
  int runs = 0;
  int calm_waits = 0;
  auto run_rung = [&](int index) {
    const double rate = spec.nominal_rate * std::pow(kLadderStep, index);
    Rung out{index, rate, 0.0, false};
    int calm_failures = 0;
    bool contended = false;
    for (int attempt = 0; attempt < kRungAttempts && !out.passed &&
                          calm_failures < 2 && runs < kMaxRungRuns;
         ++attempt, ++runs) {
      if (contended && calm_waits < kMaxCalmWaits) {
        ++calm_waits;
        std::printf("  ladder: host warm-up ended at %.2f%% steal\n",
                    100 * WarmHost());
      }
      const Schedule schedule =
          MakeSchedule(spec, data, rung_seed++, rate, rung_seconds, log);
      const PhaseResult phase =
          RunPhase(*stack.top, stack.live.get(), schedule, *log,
                   {false, 0, kRungWindows, rung_seconds});
      double steal = 0.0;
      for (double s : phase.window_steal) steal += s / kRungWindows;
      const Latencies lat = CollectLatencies(schedule, phase, rung_seconds);
      totals->attempted += lat.attempted;
      totals->failed += lat.failed;
      if (totals->first_error.empty()) totals->first_error = lat.first_error;
      const Rung tried = Judge(spec, index, rate, lat, phase.backlog);
      out.passed = tried.passed;
      contended = steal > kCalmSteal;
      if (!out.passed && !contended) ++calm_failures;
      out.p99 = attempt == 0 ? tried.p99 : std::min(out.p99, tried.p99);
      std::printf("  ladder rung %d %9.1f q/s (try %d): topk_p99 %9.3f ms "
                  "(n=%zu)  backlog %zu  steal %.2f%%%s\n",
                  index, rate, attempt + 1, tried.p99, lat.topk.size(),
                  phase.backlog, 100 * steal,
                  out.passed ? "" : "  <- over the limit");
    }
    return out;
  };

  // A failing nominal phase is run again as rung 0 before the ladder
  // descends: it may have failed only because the host was contended.
  std::optional<Rung> pass, fail;
  if (nominal.passed) pass = nominal;
  int next = 0;
  if (nominal.passed) {
    next = std::max(1, static_cast<int>(std::floor(
                           std::log(kLadderStart * capacity_guess /
                                    spec.nominal_rate) /
                           std::log(kLadderStep))));
  }
  while (runs < kMaxRungRuns) {
    const Rung rung = run_rung(next);
    if (rung.passed) {
      pass = rung;
    } else {
      fail = rung;
    }
    if (pass && fail && fail->index == pass->index + 1) break;
    if (!fail) {
      next = pass->index + 2;
    } else if (!pass) {
      next = fail->index - 1;
    } else {
      next = (pass->index + fail->index) / 2;
    }
  }
  if (!pass) return {};
  if (!fail || fail->index != pass->index + 1) return {pass->rate, false};
  // A rung that failed on backlog alone crossed the limit somewhere in
  // between: take the geometric middle.
  if (fail->p99 <= spec.p99_limit_ms) {
    return {std::sqrt(pass->rate * fail->rate), true};
  }
  const double frac = (std::log(spec.p99_limit_ms) - std::log(pass->p99)) /
                      (std::log(fail->p99) - std::log(pass->p99));
  return {pass->rate + std::clamp(frac, 0.0, 1.0) * (fail->rate - pass->rate),
          true};
}

/// The 2-worker capacity the nominal phase suggests: workers over the
/// mean time a read spent in the server (queue wait included, so it errs
/// low).
double CapacityGuess(const Schedule& schedule, const PhaseResult& phase) {
  std::vector<double> seconds;
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    const Record& rec = phase.records[i];
    if (schedule.ops[i].kind == OpKind::kApply || !rec.ok) continue;
    seconds.push_back(static_cast<double>(rec.done_ns - rec.submit_ns) * 1e-9);
  }
  const double mean = Mean(seconds);
  return mean > 0 ? kServerWorkers / mean : 0.0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ReportLatencies(const Latencies& lat, Report* report) {
  auto add = [report](const char* name, const Series& series, double q) {
    if (series.size() > 0) {
      report->Add(name, "ms", WindowedQuantile(series, q), series.size());
    }
  };
  add("topk_p50_ms", lat.topk, 0.50);
  add("topk_p95_ms", lat.topk, 0.95);
  add("topk_p99_ms", lat.topk, 0.99);
  add("page_p50_ms", lat.page, 0.50);
  add("page_p99_ms", lat.page, 0.99);
  add("stream_first_p50_ms", lat.stream_first, 0.50);
  add("stream_p99_ms", lat.stream, 0.99);
  add("apply_p50_ms", lat.apply, 0.50);
  add("apply_p99_ms", lat.apply, 0.99);
  std::printf("whole-phase quantiles (ms): topk p50 %.4f p99 %.4f  page p50 "
              "%.4f p99 %.4f  stream_first p50 %.4f  stream p99 %.4f  apply "
              "p50 %.4f p99 %.4f\n",
              Quantile(lat.topk.ms, 0.5), Quantile(lat.topk.ms, 0.99),
              Quantile(lat.page.ms, 0.5), Quantile(lat.page.ms, 0.99),
              Quantile(lat.stream_first.ms, 0.5), Quantile(lat.stream.ms, 0.99),
              Quantile(lat.apply.ms, 0.5), Quantile(lat.apply.ms, 0.99));
}

/// Whether the host let the run measure what it meant to, and why not.
struct Validity {
  ProbeResult before, after;
  double steal = 0.0;     ///< share of CPU stolen over the whole run
  double late_p99 = 0.0;  ///< generator lateness, ms
  /// Whether the capacity ladder found its passing/failing rung pair;
  /// unset in the traced run, which has no ladder.
  std::optional<bool> bracketed;

  bool degraded() const {
    return ProbeDegraded(before) || ProbeDegraded(after) ||
           steal > kDegradedSteal || late_p99 > kLateLimitMs ||
           !bracketed.value_or(true);
  }
  /// One line for people, and one JSON line that run.py passes through
  /// just before the result line.
  void Print() const {
    const char* ladder = !bracketed ? "none" : *bracketed ? "bracketed"
                                                          : "ran out of rungs";
    std::printf("run validity: %s (probe before: stall %.3f ms, scaling "
                "%.2f; after: stall %.3f ms, scaling %.2f; cpu steal %.2f%%; "
                "gen.late_ms.p99 %.4f; capacity ladder: %s)\n",
                degraded() ? "DEGRADED" : "ok", before.stall_ms,
                before.scaling, after.stall_ms, after.scaling, 100 * steal,
                late_p99, ladder);
    std::printf("{\"validity\": {\"degraded\": %s, \"steal_frac\": %.6f, "
                "\"late_ms_p99\": %.6f, \"probe_stall_ms\": [%.4f, %.4f], "
                "\"probe_scaling\": [%.4f, %.4f], \"ladder_bracketed\": %s}}\n",
                degraded() ? "true" : "false", steal, late_p99,
                before.stall_ms, after.stall_ms, before.scaling,
                after.scaling,
                !bracketed ? "null" : *bracketed ? "true" : "false");
  }
};

// ------------------------------ traced run ------------------------------ //

/// What the per-layer pass hands back besides the metrics.
struct LayerDetail {
  std::vector<double> queue_wait_ms;
  WorkSums core;  ///< work the core-layer TopK spans report (topk unset)
};

double DurationMs(const Span& span) {
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
}

/// Per span, the time its children took (ms); its self time is its
/// duration minus that.
std::vector<double> ChildMs(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += DurationMs(s);
  }
  return child;
}

/// Per-layer metrics of one traced phase, from its spans and records.
LayerDetail ReportLayers(const Schedule& schedule, const PhaseResult& phase,
                         const std::vector<Span>& spans,
                         const std::vector<double>& child_ms, double rebuild_s,
                         size_t num_relations, Report* report) {
  LayerDetail detail;
  auto dur_ms = [&](size_t i) { return DurationMs(spans[i]); };
  auto self_ms = [&](size_t i) { return dur_ms(i) - child_ms[i]; };

  // Server: queue wait is Submit to the first top-level span the request
  // caused. A next page enters through its session's cursor, whose spans
  // carry the id of the request that opened the session.
  std::unordered_map<uint64_t, std::vector<int64_t>> top_starts;
  for (const Span& s : spans) {
    if (s.parent < 0) top_starts[s.req].push_back(s.start_ns);
  }
  for (auto& entry : top_starts) {
    std::sort(entry.second.begin(), entry.second.end());
  }
  std::unordered_map<uint32_t, size_t> session_opener;
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    if (schedule.ops[i].kind == OpKind::kPageNew) {
      session_opener[schedule.ops[i].session] = i;
    }
  }
  std::vector<double>& queue_wait = detail.queue_wait_ms;
  std::vector<double> page_cost;
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    const Op& op = schedule.ops[i];
    const Record& rec = phase.records[i];
    if (op.kind == OpKind::kApply || !rec.ok) continue;
    if (IsPage(op.kind)) {
      page_cost.push_back(static_cast<double>(rec.page_cost_depths));
    }
    std::vector<uint64_t> ids = {i + 1};
    if (op.kind == OpKind::kPageNext) {
      ids.push_back(session_opener.at(op.session) + 1);
    }
    int64_t entry = -1;
    for (uint64_t id : ids) {
      auto it = top_starts.find(id);
      if (it == top_starts.end()) continue;
      auto at = std::lower_bound(it->second.begin(), it->second.end(),
                                 rec.submit_ns);
      if (at != it->second.end() && *at <= rec.done_ns &&
          (entry < 0 || *at < entry)) {
        entry = *at;
      }
    }
    if (entry >= 0) {
      queue_wait.push_back(static_cast<double>(entry - rec.submit_ns) * 1e-6);
    }
  }
  report->Add("server.queue_wait_ms.p50", "ms", Quantile(queue_wait, 0.5),
              queue_wait.size());
  report->Add("server.queue_wait_ms.p99", "ms", Quantile(queue_wait, 0.99),
              queue_wait.size());
  report->Add("server.queue_high_water", "count",
              static_cast<double>(phase.server.queue_high_water));
  report->Add("server.page_cost_depths.mean", "count", Mean(page_cost),
              page_cost.size());
  report->Add("server.page_sessions", "count",
              static_cast<double>(phase.page_sessions));

  // Cache.
  const double hits =
      static_cast<double>(phase.cache_after.hits - phase.cache_before.hits);
  const double misses =
      static_cast<double>(phase.cache_after.misses - phase.cache_before.misses);
  std::vector<double> cache_self, live_self, core_exec, pull_form, dominance,
      open_ms, next_ms, delta_tuples;
  double live_pulls = 0, base_pulls = 0, pruned = 0, delta_shards = 0;
  double bound_s = 0, total_s = 0;
  WorkSums& core = detail.core;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.layer == Layer::kCache && s.op == SpanOp::kTopK && s.parent < 0) {
      cache_self.push_back(self_ms(i));
    } else if (s.layer == Layer::kLive && s.op == SpanOp::kTopK) {
      live_self.push_back(self_ms(i));
      live_pulls += static_cast<double>(s.stats.pulls);
      delta_tuples.push_back(static_cast<double>(s.stats.delta_tuples));
      pruned += static_cast<double>(s.stats.delta_shards_pruned);
      if (s.stats.delta_tuples > 0) {
        delta_shards += static_cast<double>(num_relations);
      }
    } else if (s.layer == Layer::kCore && s.op == SpanOp::kTopK) {
      core_exec.push_back(dur_ms(i));
      pull_form.push_back((s.stats.total_seconds - s.stats.bound_seconds) *
                          1e3);
      dominance.push_back(s.stats.dominance_seconds * 1e3);
      bound_s += s.stats.bound_seconds;
      total_s += s.stats.total_seconds;
      base_pulls += static_cast<double>(s.stats.pulls);
      core.pulls += s.stats.pulls;
      core.combinations += s.stats.combinations;
      core.bound_updates += s.stats.bound_updates;
      core.qp += s.stats.qp_solves;
      core.lp += s.stats.lp_solves;
    } else if (s.layer == Layer::kCore && s.op == SpanOp::kOpen) {
      open_ms.push_back(dur_ms(i));
    } else if (s.layer == Layer::kCore && s.op == SpanOp::kNext) {
      next_ms.push_back(dur_ms(i));
    }
  }
  // Replay share of cursor results: streams own one cache view each; a
  // page session's view counts cumulatively, so take each page's delta.
  double replayed = 0, resumed = 0;
  std::unordered_map<uint32_t, std::pair<uint64_t, uint64_t>> seen;
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    const Op& op = schedule.ops[i];
    const Record& rec = phase.records[i];
    if (!rec.ok) continue;
    if (op.kind == OpKind::kStream) {
      replayed += static_cast<double>(rec.partial_hits);
      resumed += static_cast<double>(rec.resumes);
    } else if (IsPage(op.kind)) {
      auto& [hits0, resumes0] = seen[op.session];
      const bool same_view = rec.partial_hits >= hits0 && rec.resumes >= resumes0;
      replayed += static_cast<double>(rec.partial_hits - (same_view ? hits0 : 0));
      resumed += static_cast<double>(rec.resumes - (same_view ? resumes0 : 0));
      hits0 = rec.partial_hits;
      resumes0 = rec.resumes;
    }
  }
  report->Add("cache.hit_rate", "ratio", Ratio(hits, hits + misses));
  report->Add("cache.self_ms.p50", "ms", Quantile(cache_self, 0.5),
              cache_self.size());
  report->Add("cache.self_ms.p99", "ms", Quantile(cache_self, 0.99),
              cache_self.size());
  report->Add("cache.coalesced", "count",
              static_cast<double>(phase.cache_after.coalesced -
                                  phase.cache_before.coalesced));
  report->Add("cache.evictions", "count",
              static_cast<double>(phase.cache_after.evictions -
                                  phase.cache_before.evictions));
  report->Add("cache.cursor_replay_frac", "ratio",
              Ratio(replayed, replayed + resumed));

  // Live.
  report->Add("live.self_ms.p50", "ms", Quantile(live_self, 0.5),
              live_self.size());
  report->Add("live.self_ms.p99", "ms", Quantile(live_self, 0.99),
              live_self.size());
  report->Add("live.depth_amplification", "ratio",
              Ratio(live_pulls, base_pulls));
  report->Add("live.delta_tuples.mean", "count", Mean(delta_tuples),
              delta_tuples.size());
  report->Add("live.delta_shards_pruned_frac", "ratio",
              Ratio(pruned, delta_shards));
  report->Add("live.compactions", "count",
              static_cast<double>(phase.live_after.compactions -
                                  phase.live_before.compactions));
  report->Add("live.rebuild_s", "s", rebuild_s);

  // Core and solver, per TopK request of the phase.
  const double topk = static_cast<double>(SumTopKWork(schedule, phase).topk);
  report->Add("core.exec_ms.p50", "ms", Quantile(core_exec, 0.5),
              core_exec.size());
  report->Add("core.exec_ms.p99", "ms", Quantile(core_exec, 0.99),
              core_exec.size());
  report->Add("core.bound_share", "ratio", Ratio(bound_s, total_s));
  report->Add("core.pull_form_ms.p50", "ms", Quantile(pull_form, 0.5),
              pull_form.size());
  report->Add("core.pulls_per_req", "count",
              Ratio(static_cast<double>(core.pulls), topk));
  report->Add("core.combinations_per_req", "count",
              Ratio(static_cast<double>(core.combinations), topk));
  report->Add("core.bound_updates_per_req", "count",
              Ratio(static_cast<double>(core.bound_updates), topk));
  report->Add("cursor.open_ms.p50", "ms", Quantile(open_ms, 0.5),
              open_ms.size());
  report->Add("cursor.next_ms.p50", "ms", Quantile(next_ms, 0.5),
              next_ms.size());
  report->Add("solver.qp_per_req", "count",
              Ratio(static_cast<double>(core.qp), topk));
  report->Add("solver.lp_per_req", "count",
              Ratio(static_cast<double>(core.lp), topk));
  report->Add("solver.dominance_ms.p50", "ms", Quantile(dominance, 0.5),
              dominance.size());
  return detail;
}

/// Self time, total time and span counts per layer, top to bottom.
void PrintLayerTable(const std::vector<Span>& spans,
                     const std::vector<double>& child_ms,
                     const std::vector<double>& queue_wait_ms) {
  std::printf("per-layer breakdown (ms):\n");
  std::printf("  %-8s %-5s %8s %12s %12s %10s %10s\n", "layer", "op", "spans",
              "total", "self", "self_p50", "self_p99");
  double queue_total = 0;
  for (double w : queue_wait_ms) queue_total += w;
  std::printf("  %-8s %-5s %8zu %12.3f %12.3f %10.4f %10.4f\n", "server",
              "queue", queue_wait_ms.size(), queue_total, queue_total,
              Quantile(queue_wait_ms, 0.5), Quantile(queue_wait_ms, 0.99));
  for (Layer layer : {Layer::kCache, Layer::kLive, Layer::kCore}) {
    for (SpanOp op : {SpanOp::kTopK, SpanOp::kOpen, SpanOp::kNext}) {
      std::vector<double> self;
      double total = 0;
      for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].layer != layer || spans[i].op != op) continue;
        const double d = DurationMs(spans[i]);
        total += d;
        self.push_back(d - child_ms[i]);
      }
      double self_total = 0;
      for (double x : self) self_total += x;
      std::printf("  %-8s %-5s %8zu %12.3f %12.3f %10.4f %10.4f\n",
                  LayerName(layer), SpanOpName(op), self.size(), total,
                  self_total, Quantile(self, 0.5), Quantile(self, 0.99));
    }
  }
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                int64_t t0_ns) {
  std::ofstream out(path);
  if (!out) return false;
  out << "req,layer,op,thread,parent,start_us,end_us,pulls\n";
  for (const Span& s : spans) {
    out << s.req << ',' << LayerName(s.layer) << ',' << SpanOpName(s.op)
        << ',' << s.thread << ',' << s.parent << ','
        << static_cast<double>(s.start_ns - t0_ns) * 1e-3 << ','
        << static_cast<double>(s.end_ns - t0_ns) * 1e-3 << ','
        << s.stats.pulls << '\n';
  }
  return static_cast<bool>(out);
}

// -------------------------------- main --------------------------------- //

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("%s\n", HostStamp(args.git_sha).c_str());
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  const Dataset data = MakeDataset();
  const prj::SumLogEuclideanScoring scoring(1.0, 1.0, 1.0);
  ApplyLog log(data, args.seed * 31 + 7);
  // The nominal phase takes most of the run; the ladder the rest (traced:
  // a second nominal phase).
  const double nominal_seconds = args.seconds * kNominalShare;
  const uint64_t nominal_seed = args.seed * 7919 + 2;
  const uint32_t sample_every =
      spec->apply_rate > 0 ? kSampleEveryLive : kSampleEvery;

  Validity validity;
  CpuTicks ticks_before;
  Report report;
  std::vector<Sample> samples;
  size_t attempted = 0, failed = 0;
  std::string first_error;
  bool correct = true;
  std::vector<double> late_ms;

  if (!args.trace) {
    std::printf("host warm-up ended at %.2f%% steal\n", 100 * WarmHost());
    std::vector<double> setups;
    // Times a group of stack builds and returns the last stack built.
    auto time_setups = [&] {
      std::unique_ptr<Stack> last;
      for (int i = 0; i < kSetupsPerGroup; ++i) {
        last.reset();
        setups.push_back(TimeSetup(data, &scoring, &last));
      }
      return last;
    };
    const std::unique_ptr<Stack> owned = time_setups();
    const Stack& stack = *owned;
    const Schedule warm =
        MakeSchedule(*spec, data, args.seed * 7919 + 1, spec->nominal_rate,
                     kWarmupSeconds, &log);
    const Schedule nominal = MakeSchedule(
        *spec, data, nominal_seed, spec->nominal_rate, nominal_seconds, &log);
    validity.before = RunProbe();
    ticks_before = ReadCpuTicks();
    RunPhase(*stack.top, stack.live.get(), warm, log, {});
    const PhaseResult phase =
        RunPhase(*stack.top, stack.live.get(), nominal, log,
                 {false, sample_every, WindowCount(nominal), nominal_seconds});
    const Latencies lat = CollectLatencies(nominal, phase, nominal_seconds);
    attempted += lat.attempted;
    failed += lat.failed;
    first_error = lat.first_error;
    late_ms = phase.late_ms;
    AppendSamples(nominal, phase, &samples);
    const double rss_mb = PeakRssMb();
    time_setups();

    Latencies ladder;
    const Capacity capacity = MaxQps(
        *spec, data, args.seed, args.seconds * kRungShare,
        CapacityGuess(nominal, phase),
        Judge(*spec, 0, spec->nominal_rate, lat, phase.backlog), stack, &log,
        &ladder);
    attempted += ladder.attempted;
    failed += ladder.failed;
    if (first_error.empty()) first_error = ladder.first_error;
    time_setups();
    std::printf("setup builds (s):");
    for (double t : setups) std::printf(" %.4f", t);
    std::printf("\n");
    validity.bracketed = capacity.bracketed;
    if (capacity.qps <= 0) {
      std::printf("CAPACITY FAILURE: no rung of the capacity ladder, the "
                  "nominal rate included, kept topk_p99_ms under %.1f ms\n",
                  spec->p99_limit_ms);
      correct = false;
    }

    report.Add("setup_s", "s", Quantile(setups, 0.5), setups.size());
    report.Add("rss_mb", "MB", rss_mb);
    report.Add("max_qps", "1/s", capacity.qps);
    ReportLatencies(lat, &report);
    std::printf("nominal phase: %zu requests offered at %.1f q/s over %.2f s; "
                "served %.1f q/s; backlog at last arrival %zu\n",
                nominal.ops.size(), spec->nominal_rate, nominal_seconds,
                static_cast<double>(nominal.ops.size()) / phase.elapsed_s,
                phase.backlog);
  } else {
    // Untraced then traced, each on a fresh stack replaying the same
    // schedules, so the two phases serve identical requests.
    const Schedule warm =
        MakeSchedule(*spec, data, args.seed * 7919 + 1, spec->nominal_rate,
                     kWarmupSeconds, &log);
    const Schedule nominal = MakeSchedule(
        *spec, data, nominal_seed, spec->nominal_rate, nominal_seconds, &log);
    PhaseResult plain;
    {
      const auto owned = BuildStack(data, &scoring, nullptr);
      const Stack& stack = *owned;
      std::printf("host warm-up ended at %.2f%% steal\n", 100 * WarmHost());
      validity.before = RunProbe();
      ticks_before = ReadCpuTicks();
      RunPhase(*stack.top, stack.live.get(), warm, log, {});
      plain = RunPhase(
          *stack.top, stack.live.get(), nominal, log,
          {false, sample_every, WindowCount(nominal), nominal_seconds});
    }
    Tracer tracer;
    PhaseResult traced;
    std::vector<Span> spans;
    double rebuild_s = 0;
    {
      const auto owned = BuildStack(data, &scoring, &tracer);
      const Stack& stack = *owned;
      std::printf("host warm-up ended at %.2f%% steal\n", 100 * WarmHost());
      RunPhase(*stack.top, stack.live.get(), warm, log, {true, 0});
      tracer.Clear();
      const size_t builds_before = tracer.builds().size();
      traced = RunPhase(
          *stack.top, stack.live.get(), nominal, log,
          {true, sample_every, WindowCount(nominal), nominal_seconds});
      spans = tracer.Collect();
      const std::vector<double> builds = tracer.builds();
      for (size_t i = builds_before; i < builds.size(); ++i) {
        rebuild_s += builds[i];
      }
    }
    for (const PhaseResult* phase : {&plain, &traced}) {
      const Latencies lat = CollectLatencies(nominal, *phase, nominal_seconds);
      attempted += lat.attempted;
      failed += lat.failed;
      if (first_error.empty()) first_error = lat.first_error;
      AppendSamples(nominal, *phase, &samples);
    }
    late_ms = traced.late_ms;
    const Latencies plain_lat =
        CollectLatencies(nominal, plain, nominal_seconds);
    const Latencies traced_lat =
        CollectLatencies(nominal, traced, nominal_seconds);

    const std::vector<double> child_ms = ChildMs(spans);
    const LayerDetail detail =
        ReportLayers(nominal, traced, spans, child_ms, rebuild_s,
                     data.relations.size(), &report);
    report.Add("gen.late_ms.p99", "ms", Quantile(traced.late_ms, 0.99),
               traced.late_ms.size());
    report.Add("gen.late_ms.max", "ms", Quantile(traced.late_ms, 1.0),
               traced.late_ms.size());
    report.Add("gen.backlog", "count", static_cast<double>(traced.backlog));
    const double plain_p50 = WindowedQuantile(plain_lat.topk, 0.5);
    const double traced_p50 = WindowedQuantile(traced_lat.topk, 0.5);
    report.Add("trace.overhead_frac", "ratio", traced_p50 / plain_p50 - 1.0);

    // Work counters are a pure function of the requests when every TopK
    // misses the cache (topk_fresh): they must repeat exactly across the
    // two phases, and the core spans must account for all of it.
    const WorkSums plain_work = SumTopKWork(nominal, plain);
    const WorkSums traced_work = SumTopKWork(nominal, traced);
    std::printf("work untraced: %s\nwork traced:   %s\n",
                FormatSums(plain_work).c_str(),
                FormatSums(traced_work).c_str());
    WorkSums span_work = detail.core;
    span_work.topk = traced_work.topk;
    if (!spec->zipf_mix &&
        (!(plain_work == traced_work) || !(span_work == traced_work))) {
      std::printf("DETERMINISM FAILURE: work counters differ between the "
                  "untraced phase, the traced phase and its core spans "
                  "(%s)\n",
                  FormatSums(span_work).c_str());
      correct = false;
    }
    std::string spans_path = args.out_dir + "/spans_" + spec->name + "_seed" +
                             std::to_string(args.seed) + ".csv";
    if (WriteSpans(spans_path, spans, traced.t0_ns)) {
      std::printf("spans: %zu written to %s\n", spans.size(),
                  spans_path.c_str());
    } else {
      std::printf("spans: could not write %s\n", spans_path.c_str());
    }
    PrintLayerTable(spans, child_ms, detail.queue_wait_ms);
    std::printf("tracing overhead: topk_p50 %.4f ms untraced, %.4f ms "
                "traced (trace.overhead_frac %.4f)\n",
                plain_p50, traced_p50, traced_p50 / plain_p50 - 1.0);
    Report e2e;
    ReportLatencies(plain_lat, &e2e);
    e2e.Print("untraced nominal phase:");
  }

  const OracleReport oracle =
      CheckSamples(samples, log, scoring, kOracleEpochs);
  std::printf("oracle: %zu sampled answers (topk %zu, first pages %zu, next "
              "pages %zu, streams %zu) checked bit-for-bit against a fresh "
              "Engine at %zu epochs, %zu mismatched, %zu skipped%s%s\n",
              oracle.checked, oracle.checked_by_kind[0],
              oracle.checked_by_kind[1], oracle.checked_by_kind[2],
              oracle.checked_by_kind[3], oracle.epochs, oracle.mismatched,
              oracle.skipped, oracle.first_error.empty() ? "" : ": ",
              oracle.first_error.c_str());
  failed += oracle.mismatched;
  if (oracle.mismatched > 0 || oracle.checked == 0) correct = false;
  if (!first_error.empty()) {
    std::printf("first failure: %s\n", first_error.c_str());
  }
  if (!args.trace) {
    report.Add("failed_frac", "ratio",
               Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
               attempted);
  }
  validity.after = RunProbe();
  validity.steal = StealShare(ticks_before, ReadCpuTicks());
  validity.late_p99 = Quantile(late_ms, 0.99);
  if (args.trace) {
    report.Add("run.degraded", "count", validity.degraded() ? 1.0 : 0.0);
    report.Add("run.steal_frac", "ratio", validity.steal);
  }
  std::printf("gen.late_ms p50 %.4f p99 %.4f max %.4f\n",
              Quantile(late_ms, 0.5), Quantile(late_ms, 0.99),
              Quantile(late_ms, 1.0));
  report.Print(args.trace ? "per-layer metrics:" : "end-to-end metrics:");
  validity.Print();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              report.Json().c_str());
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serving_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] "
                 "[--git-sha <sha>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
