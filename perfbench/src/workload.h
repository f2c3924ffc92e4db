// Inputs of the serving benchmark. The joined relations and the Zipf query
// pool are fixed data, the same in every run. The run's seed draws the
// traffic: the fresh query points, the open-loop arrival schedule and the
// Apply log that live_churn replays (and that the correctness oracle
// replays again to rebuild the content of any epoch).
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "access/relation.h"
#include "common/random.h"
#include "common/vec.h"
#include "live/live_engine.h"

namespace perfbench {

/// One traffic mix. Every workload runs on the same stack and data.
struct WorkloadSpec {
  std::string name;
  /// false: TopK at K=10 on fresh uniform points only (topk_fresh).
  /// true: the read mix over the Zipf pool (60% TopK K in {10,20,50},
  /// 25% SubmitPage, 15% SubmitStream K=20).
  bool zipf_mix = false;
  double nominal_rate = 0.0;  ///< reads per second at the nominal point
  double apply_rate = 0.0;    ///< Apply batches per second (0: read-only)
  double p99_limit_ms = 0.0;  ///< the topk_p99_ms limit max_qps is held to
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// n=2, d=2, density 50, 100,000 tuples per relation, plus the 512-point
/// query pool of the Zipf mixes, drawn from one fixed seed.
struct Dataset {
  std::vector<prj::Relation> relations;
  double side = 0.0;  ///< edge of the data cube, centred on the origin
  std::vector<prj::Vec> pool;
};
Dataset MakeDataset();

enum class OpKind : uint8_t { kTopK, kPageNew, kPageNext, kStream, kApply };

/// One scheduled request. `due_ns` is relative to the phase start.
struct Op {
  int64_t due_ns = 0;
  OpKind kind = OpKind::kTopK;
  int k = 10;              ///< TopK K, page size, or stream K
  uint32_t query = 0;      ///< index into Schedule::queries
  uint32_t session = 0;    ///< page ops: schedule-level session
  uint32_t page = 0;       ///< page ops: 1-based page number
  uint32_t apply = 0;      ///< kApply: index into the ApplyLog
};

struct Schedule {
  std::vector<Op> ops;  ///< sorted by due_ns
  std::vector<prj::Vec> queries;
  uint32_t sessions = 0;  ///< page sessions the ops refer to
};

/// The live_churn update stream: batch i inserts 25 new tuples and
/// deletes 5 live ones per relation. Batches are generated in order, on
/// demand, from their own seed.
class ApplyLog {
 public:
  ApplyLog(const Dataset& data, uint64_t seed);

  /// Generates the next batch and returns its index.
  uint32_t Append();
  const prj::UpdateBatch& batch(size_t i) const { return batches_.at(i); }

  /// The logical content after the first `applied` batches: the seed
  /// tuples minus deletes, then the inserts in order minus deletes.
  std::vector<prj::Relation> ContentAt(size_t applied) const;

 private:
  const Dataset* data_;
  prj::Rng rng_;
  std::vector<std::vector<int64_t>> live_ids_;
  int64_t next_id_ = 1'000'000'000;
  std::vector<prj::UpdateBatch> batches_;
};

/// Poisson arrivals over [0, seconds) at `read_rate` reads/s, plus the
/// workload's Apply stream, whose batches are appended to `log`.
Schedule MakeSchedule(const WorkloadSpec& spec, const Dataset& data,
                      uint64_t seed, double read_rate, double seconds,
                      ApplyLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
