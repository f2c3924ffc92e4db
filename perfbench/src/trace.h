// Span tracing from outside the program: pass-through QueryEngine
// decorators (and a ResultCursor wrapper) that record one span per call
// at a layer boundary. The traced stack is
//
//   TracedEngine(kCache) -> CachedEngine -> TracedEngine(kLive)
//     -> LiveEngine -> TracedEngine(kCore) -> Engine   (every base engine
//                                                       the factory builds)
//
// so a layer's self time is its span minus its child spans. Spans live in
// per-thread buffers and are collected once the traffic has stopped.
//
// Request identity: Server hands the top decorator nothing but the
// QueryRequest, so the traced run carries the request id in
// ProxRJOptions::scatter_hint. That field is a planner hint which no
// engine of this stack reads, and the canonical request key excludes it,
// so tagging changes neither answers nor cache behaviour. Deeper spans
// inherit the id of the span that called them.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "core/query_engine.h"
#include "live/live_engine.h"

namespace perfbench {

enum class Layer : uint8_t { kCache, kLive, kCore };
enum class SpanOp : uint8_t { kTopK, kOpen, kNext };

const char* LayerName(Layer layer);
const char* SpanOpName(SpanOp op);

/// Work counters a TopK span read off the ExecStats its layer returned.
struct SpanStats {
  uint64_t pulls = 0;  ///< ExecStats::sum_depths
  uint64_t combinations = 0;
  uint64_t bound_updates = 0;
  uint64_t qp_solves = 0;
  uint64_t lp_solves = 0;
  uint64_t delta_tuples = 0;
  uint64_t delta_shards_pruned = 0;
  double total_seconds = 0.0;
  double bound_seconds = 0.0;
  double dominance_seconds = 0.0;
};

struct Span {
  uint64_t req = 0;     ///< request id (0: none)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index of the calling span, -1 at the top
  uint32_t thread = 0;
  Layer layer = Layer::kCache;
  SpanOp op = SpanOp::kTopK;
  bool has_stats = false;
  SpanStats stats;
};

/// Steady-clock nanoseconds; the one clock of the benchmark.
int64_t NowNs();

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// All spans recorded so far, parents as indices into the result. Call
  /// only while no traced call is running.
  std::vector<Span> Collect() const;
  /// Drops every span recorded so far (same precondition as Collect).
  void Clear();

  /// Durations of the base-engine builds the traced factory made.
  void RecordBuild(double seconds);
  std::vector<double> builds() const;

 private:
  friend class ScopedSpan;
  struct ThreadLog {
    uint32_t index = 0;
    std::vector<Span> spans;
    std::vector<int64_t> open;  ///< stack of unfinished span indices
  };
  ThreadLog* LocalLog();

  uint64_t id_ = 0;  ///< process-unique, so thread buffers never go stale

  mutable prj::Mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_ PRJ_GUARDED_BY(mu_);
  std::vector<double> builds_ PRJ_GUARDED_BY(mu_);
};

/// Decorates `inner` with spans of `layer`. `owned`, when set, is the
/// engine `inner` points to and dies with the decorator.
class TracedEngine : public prj::QueryEngine {
 public:
  TracedEngine(const prj::QueryEngine* inner, Layer layer, Tracer* tracer,
               std::unique_ptr<const prj::QueryEngine> owned = nullptr);

  prj::Result<std::vector<prj::ResultCombination>> TopK(
      const prj::Vec& query, const prj::ProxRJOptions& options,
      prj::ExecStats* stats_out = nullptr) const override;
  prj::Result<std::unique_ptr<prj::ResultCursor>> OpenCursor(
      const prj::QueryRequest& request) const override;

  prj::AccessKind kind() const override { return inner_->kind(); }
  int dim() const override { return inner_->dim(); }
  size_t num_relations() const override { return inner_->num_relations(); }
  size_t fan_out() const override { return inner_->fan_out(); }
  prj::CacheCounters cache_counters() const override {
    return inner_->cache_counters();
  }
  prj::LiveCounters live_counters() const override {
    return inner_->live_counters();
  }
  std::vector<prj::RelationStats> relation_stats() const override;

 private:
  /// The top layer takes the request id from the request; deeper layers
  /// inherit it (0).
  uint64_t RequestId(const prj::ProxRJOptions& options) const;

  std::unique_ptr<const prj::QueryEngine> owned_;
  const prj::QueryEngine* inner_;
  Layer layer_;
  Tracer* tracer_;
};

/// `inner` with every engine it builds timed (Tracer::RecordBuild) and
/// wrapped in a kCore TracedEngine.
prj::BaseEngineFactory TracedFactory(prj::BaseEngineFactory inner,
                                     Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
