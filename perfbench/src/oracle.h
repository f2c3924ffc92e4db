// The benchmark's correctness check: sampled answers against a fresh
// Engine over the content of the epoch each answer reports
// (ExecStats::data_epoch), rebuilt by replaying the Apply log.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/executor.h"
#include "core/scoring.h"
#include "workload.h"

namespace perfbench {

/// One sampled answer: ranks [start, start + expected) of the enumeration
/// for `query` at `epoch`.
struct Sample {
  OpKind kind = OpKind::kTopK;
  prj::Vec query;
  uint64_t start = 0;
  uint64_t expected = 0;
  uint64_t epoch = 0;
  std::vector<prj::ResultCombination> combos;
};

struct OracleReport {
  size_t checked = 0;
  /// Checked answers by OpKind (TopK, first page, next page, stream).
  size_t checked_by_kind[4] = {};
  size_t mismatched = 0;
  size_t skipped = 0;  ///< samples at epochs beyond the oracle budget
  size_t epochs = 0;   ///< fresh engines built
  std::string first_error;
};

/// Checks `samples` bit-for-bit. Builds at most `max_epochs` oracle
/// engines, for the epochs most samples report; samples at other epochs
/// are skipped and counted.
OracleReport CheckSamples(const std::vector<Sample>& samples,
                          const ApplyLog& log,
                          const prj::ScoringFunction& scoring,
                          size_t max_epochs);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
