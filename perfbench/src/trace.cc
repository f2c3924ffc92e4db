#include "trace.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <utility>

#include "common/timer.h"
#include "core/result_cursor.h"
#include "plan/relation_stats.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kCache:
      return "cache";
    case Layer::kLive:
      return "live";
    case Layer::kCore:
      return "core";
  }
  return "?";
}

const char* SpanOpName(SpanOp op) {
  switch (op) {
    case SpanOp::kTopK:
      return "topk";
    case SpanOp::kOpen:
      return "open";
    case SpanOp::kNext:
      return "next";
  }
  return "?";
}

Tracer::Tracer() {
  static std::atomic<uint64_t> next_id{1};
  id_ = next_id.fetch_add(1);
}

Tracer::ThreadLog* Tracer::LocalLog() {
  // One buffer per (thread, tracer); the owner check keeps a thread that
  // outlives one tracer from writing into a dead one's buffer.
  thread_local uint64_t owner = 0;
  thread_local ThreadLog* log = nullptr;
  if (owner != id_) {
    auto fresh = std::make_unique<ThreadLog>();
    prj::MutexLock lock(mu_);
    fresh->index = static_cast<uint32_t>(logs_.size());
    log = fresh.get();
    logs_.push_back(std::move(fresh));
    owner = id_;
  }
  return log;
}

std::vector<Span> Tracer::Collect() const {
  prj::MutexLock lock(mu_);
  std::vector<Span> out;
  for (const auto& log : logs_) {
    const int64_t base = static_cast<int64_t>(out.size());
    for (Span span : log->spans) {
      if (span.parent >= 0) span.parent += base;
      out.push_back(span);
    }
  }
  return out;
}

void Tracer::Clear() {
  prj::MutexLock lock(mu_);
  for (const auto& log : logs_) log->spans.clear();
}

void Tracer::RecordBuild(double seconds) {
  prj::MutexLock lock(mu_);
  builds_.push_back(seconds);
}

std::vector<double> Tracer::builds() const {
  prj::MutexLock lock(mu_);
  return builds_;
}

/// Opens a span on construction and closes it on destruction; `req` 0
/// inherits the calling span's request id.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer, SpanOp op, uint64_t req)
      : log_(tracer->LocalLog()), index_(log_->spans.size()) {
    Span span;
    span.layer = layer;
    span.op = op;
    span.thread = log_->index;
    span.parent = log_->open.empty() ? -1 : log_->open.back();
    span.req = req != 0 || span.parent < 0
                   ? req
                   : log_->spans[static_cast<size_t>(span.parent)].req;
    log_->spans.push_back(span);
    log_->open.push_back(static_cast<int64_t>(index_));
    log_->spans[index_].start_ns = NowNs();
  }
  ~ScopedSpan() {
    log_->spans[index_].end_ns = NowNs();
    log_->open.pop_back();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void SetStats(const prj::ExecStats& s) {
    Span& span = log_->spans[index_];
    span.has_stats = true;
    span.stats.pulls = s.sum_depths;
    span.stats.combinations = s.combinations_formed;
    span.stats.bound_updates = s.bound_stats.bound_updates;
    span.stats.qp_solves = s.bound_stats.qp_solves;
    span.stats.lp_solves = s.bound_stats.lp_solves;
    span.stats.delta_tuples = s.delta_tuples;
    span.stats.delta_shards_pruned = s.delta_shards_pruned;
    span.stats.total_seconds = s.total_seconds;
    span.stats.bound_seconds = s.bound_seconds;
    span.stats.dominance_seconds = s.dominance_seconds;
  }

 private:
  Tracer::ThreadLog* log_;
  size_t index_;
};

namespace {

class TracedCursor : public prj::ResultCursor {
 public:
  TracedCursor(std::unique_ptr<prj::ResultCursor> inner, Layer layer,
               Tracer* tracer, uint64_t req)
      : inner_(std::move(inner)), layer_(layer), tracer_(tracer), req_(req) {}

  prj::Result<std::optional<prj::ResultCombination>> Next() override {
    ScopedSpan span(tracer_, layer_, SpanOp::kNext, req_);
    return inner_->Next();
  }
  prj::ExecStats stats() const override { return inner_->stats(); }
  uint64_t emitted() const override { return inner_->emitted(); }

 private:
  std::unique_ptr<prj::ResultCursor> inner_;
  Layer layer_;
  Tracer* tracer_;
  uint64_t req_;
};

}  // namespace

TracedEngine::TracedEngine(const prj::QueryEngine* inner, Layer layer,
                           Tracer* tracer,
                           std::unique_ptr<const prj::QueryEngine> owned)
    : owned_(std::move(owned)), inner_(inner), layer_(layer), tracer_(tracer) {}

uint64_t TracedEngine::RequestId(const prj::ProxRJOptions& options) const {
  return layer_ == Layer::kCache ? options.scatter_hint : 0;
}

prj::Result<std::vector<prj::ResultCombination>> TracedEngine::TopK(
    const prj::Vec& query, const prj::ProxRJOptions& options,
    prj::ExecStats* stats_out) const {
  ScopedSpan span(tracer_, layer_, SpanOp::kTopK, RequestId(options));
  prj::ExecStats local;
  prj::ExecStats* stats = stats_out != nullptr ? stats_out : &local;
  auto result = inner_->TopK(query, options, stats);
  span.SetStats(*stats);
  return result;
}

prj::Result<std::unique_ptr<prj::ResultCursor>> TracedEngine::OpenCursor(
    const prj::QueryRequest& request) const {
  const uint64_t req = RequestId(request.options);
  ScopedSpan span(tracer_, layer_, SpanOp::kOpen, req);
  auto cursor = inner_->OpenCursor(request);
  if (!cursor.ok()) return cursor.status();
  return std::unique_ptr<prj::ResultCursor>(std::make_unique<TracedCursor>(
      std::move(cursor).value(), layer_, tracer_, req));
}

std::vector<prj::RelationStats> TracedEngine::relation_stats() const {
  return inner_->relation_stats();
}

prj::BaseEngineFactory TracedFactory(prj::BaseEngineFactory inner,
                                     Tracer* tracer) {
  return [inner = std::move(inner), tracer](
             const std::vector<prj::Relation>& relations)
             -> prj::Result<std::unique_ptr<const prj::QueryEngine>> {
    const prj::WallTimer timer;
    auto built = inner(relations);
    tracer->RecordBuild(timer.ElapsedSeconds());
    if (!built.ok()) return built.status();
    std::unique_ptr<const prj::QueryEngine> engine = std::move(built).value();
    const prj::QueryEngine* raw = engine.get();
    return std::unique_ptr<const prj::QueryEngine>(std::make_unique<TracedEngine>(
        raw, Layer::kCore, tracer, std::move(engine)));
  };
}

}  // namespace perfbench
