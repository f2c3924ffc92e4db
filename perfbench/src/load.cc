#include "load.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/mutex.h"
#include "host.h"
#include "trace.h"

namespace perfbench {

namespace {

/// Far above any backlog a passing ladder rung builds, so Submit never
/// blocks and the loop stays open.
constexpr size_t kQueueCapacity = 1 << 16;
constexpr uint32_t kSessionSample = 8;
void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

void CopyStats(const prj::ExecStats& s, Record* rec) {
  rec->epoch = s.data_epoch;
  rec->pulls = s.sum_depths;
  rec->combinations = s.combinations_formed;
  rec->bound_updates = s.bound_stats.bound_updates;
  rec->qp_solves = s.bound_stats.qp_solves;
  rec->lp_solves = s.bound_stats.lp_solves;
  rec->partial_hits = s.cursor_partial_hits;
  rec->resumes = s.cursor_resumes;
}

/// The latest page a session has back, and the token for the one after.
struct SessionSlot {
  std::string token;                 // written before `ready_page`
  std::atomic<uint32_t> ready_page{0};
};

struct Pending {
  uint32_t index = 0;
  std::future<prj::QueryResult> query;
  std::future<prj::PageResult> page;
};

template <typename T>
bool Ready(const std::future<T>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// Stamps and unpacks results the moment their futures are ready. It
/// spins while anything is in flight and sleeps otherwise, so the idle
/// generator leaves its CPU to the server.
class Completer {
 public:
  Completer(const Schedule& schedule, std::vector<Record>* records,
            std::vector<std::unique_ptr<SessionSlot>>* sessions)
      : schedule_(schedule), records_(records), sessions_(sessions) {
    thread_ = std::thread(&Completer::Loop, this);
  }
  ~Completer() { Finish(); }
  Completer(const Completer&) = delete;
  Completer& operator=(const Completer&) = delete;

  void Add(Pending pending) {
    prj::MutexLock lock(mu_);
    incoming_.push_back(std::move(pending));
    wake_.NotifyOne();
  }
  size_t completed() const { return completed_.load(std::memory_order_acquire); }
  /// No more Add calls; waits for everything added so far.
  void Finish() {
    if (!thread_.joinable()) return;
    {
      prj::MutexLock lock(mu_);
      closed_ = true;
      wake_.NotifyOne();
    }
    thread_.join();
  }

 private:
  void Loop() {
    std::vector<Pending> outstanding;
    std::vector<Pending> fresh;
    for (;;) {
      bool closed = false;
      {
        prj::MutexLock lock(mu_);
        while (outstanding.empty() && incoming_.empty() && !closed_) {
          wake_.Wait(lock);
        }
        fresh.swap(incoming_);
        closed = closed_;
      }
      for (Pending& p : fresh) outstanding.push_back(std::move(p));
      fresh.clear();
      bool progressed = false;
      for (size_t j = 0; j < outstanding.size();) {
        Pending& p = outstanding[j];
        const bool is_page = p.page.valid();
        if (is_page ? !Ready(p.page) : !Ready(p.query)) {
          ++j;
          continue;
        }
        Complete(&p, NowNs());
        progressed = true;
        completed_.fetch_add(1, std::memory_order_acq_rel);
        outstanding[j] = std::move(outstanding.back());
        outstanding.pop_back();
      }
      if (closed && outstanding.empty()) return;
      if (!progressed) CpuRelax();
    }
  }

  void Complete(Pending* p, int64_t now) {
    const Op& op = schedule_.ops[p->index];
    Record& rec = (*records_)[p->index];
    rec.done_ns = now;
    if (p->page.valid()) {
      prj::PageResult page = p->page.get();
      rec.ok = page.result.ok();
      if (!rec.ok) rec.error = page.result.status.ToString();
      CopyStats(page.result.stats, &rec);
      rec.page_start = page.page_start;
      rec.page_cost_depths = page.page_cost_depths;
      if (rec.sampled) rec.combos = std::move(page.result.combinations);
      SessionSlot& slot = *(*sessions_)[op.session];
      slot.token = std::move(page.next_page_token);
      slot.ready_page.store(op.page, std::memory_order_release);
      return;
    }
    prj::QueryResult result = p->query.get();
    rec.ok = result.ok();
    if (!rec.ok) rec.error = result.status.ToString();
    CopyStats(result.stats, &rec);
    // A stream's answer already arrived through its callbacks.
    if (op.kind == OpKind::kTopK && rec.sampled) {
      rec.combos = std::move(result.combinations);
    }
  }

  const Schedule& schedule_;
  std::vector<Record>* records_;
  std::vector<std::unique_ptr<SessionSlot>>* sessions_;
  prj::Mutex mu_;
  prj::CondVar wake_;
  std::vector<Pending> incoming_ PRJ_GUARDED_BY(mu_);
  bool closed_ PRJ_GUARDED_BY(mu_) = false;
  std::atomic<size_t> completed_{0};
  std::thread thread_;  // last: starts after everything it reads
};

}  // namespace

prj::ProxRJOptions RequestOptions(int k) {
  prj::ProxRJOptions options;
  options.Apply(prj::kTBPA);
  options.k = k;
  return options;
}

PhaseResult RunPhase(const prj::QueryEngine& top, prj::LiveEngine* live,
                     const Schedule& schedule, const ApplyLog& log,
                     const PhaseConfig& config) {
  PhaseResult out;
  const std::vector<Op>& ops = schedule.ops;
  out.records.resize(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const bool is_page =
        op.kind == OpKind::kPageNew || op.kind == OpKind::kPageNext;
    out.records[i].sampled =
        config.sample_every > 0 && op.kind != OpKind::kApply &&
        (is_page ? op.session % kSessionSample == 0
                 : i % config.sample_every == 0);
  }
  std::vector<std::unique_ptr<SessionSlot>> sessions;
  for (uint32_t s = 0; s < schedule.sessions; ++s) {
    sessions.push_back(std::make_unique<SessionSlot>());
  }

  prj::ServerOptions server_options;
  server_options.num_workers = kServerWorkers;
  server_options.queue_capacity = kQueueCapacity;
  prj::Server server(&top, server_options);
  out.cache_before = top.cache_counters();
  out.live_before = top.live_counters();

  Completer completer(schedule, &out.records, &sessions);
  size_t submitted = 0;
  std::vector<size_t> deferred;

  auto request_for = [&](size_t i) {
    const Op& op = ops[i];
    prj::QueryRequest request;
    request.query = schedule.queries[op.query];
    request.options = RequestOptions(op.k);
    if (config.tag_requests) {
      request.options.scatter_hint = static_cast<uint32_t>(i + 1);
    }
    return request;
  };
  // Sends request i now; false when a next page's token is not back yet.
  auto send = [&](size_t i) -> bool {
    const Op& op = ops[i];
    Record& rec = out.records[i];
    switch (op.kind) {
      case OpKind::kApply: {
        rec.submit_ns = NowNs();
        const prj::Status status = live->Apply(log.batch(op.apply));
        rec.done_ns = NowNs();
        rec.ok = status.ok();
        if (!rec.ok) rec.error = status.ToString();
        return true;
      }
      case OpKind::kTopK: {
        Pending p;
        p.index = static_cast<uint32_t>(i);
        rec.submit_ns = NowNs();
        p.query = server.Submit(request_for(i));
        completer.Add(std::move(p));
        break;
      }
      case OpKind::kStream: {
        Pending p;
        p.index = static_cast<uint32_t>(i);
        // Runs on the serving worker; the future's readiness publishes
        // these writes to whoever reads the record afterwards.
        prj::StreamCallback on_result =
            [&rec](uint64_t rank, const prj::ResultCombination& combo) {
              if (rank == 0) rec.first_ns = NowNs();
              if (rec.sampled) rec.combos.push_back(combo);
            };
        rec.submit_ns = NowNs();
        p.query = server.SubmitStream(request_for(i), std::move(on_result));
        completer.Add(std::move(p));
        break;
      }
      case OpKind::kPageNew:
      case OpKind::kPageNext: {
        std::string token;
        if (op.kind == OpKind::kPageNext) {
          SessionSlot& slot = *sessions[op.session];
          if (slot.ready_page.load(std::memory_order_acquire) + 1 != op.page) {
            return false;
          }
          token = slot.token;
          if (token.empty()) {
            // The previous page failed or ended the enumeration.
            rec.submit_ns = rec.done_ns = NowNs();
            rec.error = "no page token for page " + std::to_string(op.page);
            slot.ready_page.store(op.page, std::memory_order_release);
            return true;
          }
        }
        Pending p;
        p.index = static_cast<uint32_t>(i);
        rec.submit_ns = NowNs();
        p.page = server.SubmitPage(request_for(i), std::move(token));
        completer.Add(std::move(p));
        break;
      }
    }
    ++submitted;
    return true;
  };
  auto retry_deferred = [&] {
    for (size_t j = 0; j < deferred.size();) {
      if (send(deferred[j])) {
        deferred[j] = deferred.back();
        deferred.pop_back();
      } else {
        ++j;
      }
    }
  };

  std::vector<CpuTicks> ticks;
  const int windows = std::max(1, config.windows);
  out.t0_ns = NowNs() + 1'000'000;
  auto window_start = [&](size_t w) {
    return out.t0_ns + static_cast<int64_t>(config.seconds * 1e9 *
                                            static_cast<double>(w) / windows);
  };
  for (size_t i = 0; i < ops.size(); ++i) {
    const int64_t due = out.t0_ns + ops[i].due_ns;
    for (int64_t now = NowNs(); now < due; now = NowNs()) {
      if (ticks.size() < static_cast<size_t>(windows) &&
          now >= window_start(ticks.size())) {
        ticks.push_back(ReadCpuTicks());
      }
      if (!deferred.empty()) retry_deferred();
      CpuRelax();
    }
    if (send(i)) {
      out.late_ms.push_back(
          static_cast<double>(out.records[i].submit_ns - due) * 1e-6);
    } else {
      deferred.push_back(i);
    }
  }
  out.backlog = submitted - completer.completed();
  while (ticks.size() <= static_cast<size_t>(windows)) {
    ticks.push_back(ReadCpuTicks());
  }
  for (size_t w = 0; w + 1 < ticks.size(); ++w) {
    out.window_steal.push_back(StealShare(ticks[w], ticks[w + 1]));
  }
  while (!deferred.empty()) {
    retry_deferred();
    CpuRelax();
  }
  completer.Finish();
  int64_t last = out.t0_ns;
  for (const Record& rec : out.records) last = std::max(last, rec.done_ns);
  out.elapsed_s = static_cast<double>(last - out.t0_ns) * 1e-9;
  out.server = server.Stats();
  out.page_sessions = server.live_page_sessions();
  out.cache_after = top.cache_counters();
  out.live_after = top.live_counters();
  return out;
}

}  // namespace perfbench
