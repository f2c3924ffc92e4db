#include "workload.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "workload/synthetic.h"

namespace perfbench {

namespace {

/// Seed of the relations and the query pool: every run serves the same
/// data, and only the traffic changes with the run's seed.
constexpr uint64_t kDataSeed = 20100913;
constexpr int kDim = 2;
constexpr int kRelations = 2;
constexpr double kDensity = 50.0;
constexpr int kTuplesPerRelation = 100'000;
constexpr size_t kPoolSize = 512;
constexpr int kPageSize = 10;
constexpr uint32_t kMaxPages = 5;
constexpr int kStreamK = 20;
constexpr int kInsertsPerRelation = 25;
constexpr int kDeletesPerRelation = 5;
/// A user asks for the next page no sooner than this after the last one.
constexpr int64_t kMinPageGapNs = 20'000'000;
/// Sessions a user may still page through; older ones are abandoned.
constexpr size_t kMaxOpenSessions = 128;

const WorkloadSpec kWorkloads[] = {
    {"topk_fresh", false, 1200.0, 0.0, 10.0},
    {"mixed_zipf", true, 1200.0, 0.0, 10.0},
    {"live_churn", true, 250.0, 20.0, 25.0},
};

double Exponential(prj::Rng* rng, double rate) {
  return -std::log(1.0 - rng->NextDouble()) / rate;
}

/// Zipf(s=1) rank over the pool: CDF search on one uniform draw.
class ZipfPicker {
 public:
  explicit ZipfPicker(size_t n) : cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  uint32_t Pick(prj::Rng* rng) const {
    const double u = rng->NextDouble();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<uint32_t>(
        std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Dataset MakeDataset() {
  prj::SyntheticSpec spec;
  spec.dim = kDim;
  spec.density = kDensity;
  spec.count = kTuplesPerRelation;
  spec.seed = kDataSeed;
  Dataset data;
  data.relations = prj::GenerateProblem(kRelations, spec);
  data.side = prj::CubeSide(spec);
  prj::Rng rng(kDataSeed ^ 0x9e3779b97f4a7c15ULL);
  data.pool.reserve(kPoolSize);
  for (size_t i = 0; i < kPoolSize; ++i) {
    data.pool.push_back(
        rng.UniformInCube(kDim, -data.side / 2, data.side / 2));
  }
  return data;
}

Schedule MakeSchedule(const WorkloadSpec& spec, const Dataset& data,
                      uint64_t seed, double read_rate, double seconds,
                      ApplyLog* log) {
  prj::Rng rng(seed);
  const ZipfPicker zipf(data.pool.size());
  Schedule out;
  if (spec.zipf_mix) out.queries = data.pool;

  struct OpenSession {
    uint32_t id;
    uint32_t query;
    uint32_t pages;
    int64_t last_due;
  };
  std::vector<OpenSession> open;

  double t_read = Exponential(&rng, read_rate);
  double t_apply = spec.apply_rate > 0 ? Exponential(&rng, spec.apply_rate)
                                       : seconds;
  for (;;) {
    const bool apply_next = t_apply < t_read;
    const double t = apply_next ? t_apply : t_read;
    if (t >= seconds) break;
    Op op;
    op.due_ns = static_cast<int64_t>(t * 1e9);
    if (apply_next) {
      op.kind = OpKind::kApply;
      op.apply = log->Append();
      t_apply += Exponential(&rng, spec.apply_rate);
      out.ops.push_back(op);
      continue;
    }
    t_read += Exponential(&rng, read_rate);
    if (!spec.zipf_mix) {
      op.kind = OpKind::kTopK;
      op.k = 10;
      op.query = static_cast<uint32_t>(out.queries.size());
      out.queries.push_back(
          rng.UniformInCube(kDim, -data.side / 2, data.side / 2));
      out.ops.push_back(op);
      continue;
    }
    const double u = rng.NextDouble();
    if (u < 0.60) {
      static constexpr int kTopKs[] = {10, 20, 50};
      op.kind = OpKind::kTopK;
      op.k = kTopKs[rng.NextBounded(3)];
      op.query = zipf.Pick(&rng);
    } else if (u < 0.85) {
      op.k = kPageSize;
      std::vector<size_t> eligible;
      for (size_t i = 0; i < open.size(); ++i) {
        if (op.due_ns - open[i].last_due >= kMinPageGapNs) {
          eligible.push_back(i);
        }
      }
      if (!eligible.empty() && rng.NextDouble() < 0.5) {
        OpenSession& s = open[eligible[rng.NextBounded(eligible.size())]];
        op.kind = OpKind::kPageNext;
        op.session = s.id;
        op.query = s.query;
        op.page = ++s.pages;
        s.last_due = op.due_ns;
      } else {
        op.kind = OpKind::kPageNew;
        op.session = out.sessions++;
        op.query = zipf.Pick(&rng);
        op.page = 1;
        open.push_back({op.session, op.query, 1, op.due_ns});
        if (open.size() > kMaxOpenSessions) open.erase(open.begin());
      }
      open.erase(std::remove_if(open.begin(), open.end(),
                                [](const OpenSession& s) {
                                  return s.pages >= kMaxPages;
                                }),
                 open.end());
    } else {
      op.kind = OpKind::kStream;
      op.k = kStreamK;
      op.query = zipf.Pick(&rng);
    }
    out.ops.push_back(op);
  }
  return out;
}

ApplyLog::ApplyLog(const Dataset& data, uint64_t seed)
    : data_(&data), rng_(seed) {
  for (const prj::Relation& rel : data.relations) {
    std::vector<int64_t> ids;
    ids.reserve(rel.size());
    for (const prj::Tuple& t : rel.tuples()) ids.push_back(t.id);
    live_ids_.push_back(std::move(ids));
  }
}

uint32_t ApplyLog::Append() {
  const double half = data_->side / 2;
  prj::UpdateBatch batch;
  batch.relations.resize(live_ids_.size());
  for (size_t r = 0; r < live_ids_.size(); ++r) {
    std::vector<int64_t>& live = live_ids_[r];
    prj::RelationUpdate& update = batch.relations[r];
    for (int i = 0; i < kDeletesPerRelation; ++i) {
      const size_t victim = rng_.NextBounded(live.size());
      update.deletes.push_back(live[victim]);
      live[victim] = live.back();
      live.pop_back();
    }
    for (int i = 0; i < kInsertsPerRelation; ++i) {
      prj::Tuple t;
      t.id = next_id_++;
      t.score = 1.0 - rng_.NextDouble();  // (0, 1]
      t.x = rng_.UniformInCube(kDim, -half, half);
      update.inserts.push_back(t);
    }
    for (const prj::Tuple& t : update.inserts) live.push_back(t.id);
  }
  batches_.push_back(std::move(batch));
  return static_cast<uint32_t>(batches_.size() - 1);
}

std::vector<prj::Relation> ApplyLog::ContentAt(size_t applied) const {
  std::vector<prj::Relation> out;
  for (size_t r = 0; r < data_->relations.size(); ++r) {
    const prj::Relation& seed_rel = data_->relations[r];
    std::unordered_set<int64_t> deleted;
    for (size_t b = 0; b < applied; ++b) {
      for (int64_t id : batches_.at(b).relations[r].deletes) deleted.insert(id);
    }
    prj::Relation rel(seed_rel.name(), seed_rel.dim(), seed_rel.sigma_max());
    for (const prj::Tuple& t : seed_rel.tuples()) {
      if (deleted.count(t.id) == 0) rel.Add(t);
    }
    for (size_t b = 0; b < applied; ++b) {
      for (const prj::Tuple& t : batches_.at(b).relations[r].inserts) {
        if (deleted.count(t.id) == 0) rel.Add(t);
      }
    }
    out.push_back(std::move(rel));
  }
  return out;
}

}  // namespace perfbench
