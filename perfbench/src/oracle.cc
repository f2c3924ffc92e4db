#include "oracle.h"

#include <algorithm>
#include <map>
#include <set>

#include "core/engine.h"
#include "core/query_engine.h"
#include "load.h"

namespace perfbench {

OracleReport CheckSamples(const std::vector<Sample>& samples,
                          const ApplyLog& log,
                          const prj::ScoringFunction& scoring,
                          size_t max_epochs) {
  OracleReport report;
  std::map<uint64_t, std::vector<const Sample*>> by_epoch;
  for (const Sample& s : samples) by_epoch[s.epoch].push_back(&s);

  // The epochs with the most samples, ties to the earlier one.
  std::vector<std::pair<size_t, uint64_t>> ranked;
  for (const auto& entry : by_epoch) {
    ranked.emplace_back(entry.second.size(), entry.first);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::set<uint64_t> chosen;
  for (size_t i = 0; i < ranked.size() && i < max_epochs; ++i) {
    chosen.insert(ranked[i].second);
  }

  auto fail = [&report](std::string why) {
    ++report.mismatched;
    if (report.first_error.empty()) report.first_error = std::move(why);
  };
  for (const auto& [epoch, group] : by_epoch) {
    if (chosen.count(epoch) == 0) {
      report.skipped += group.size();
      continue;
    }
    if (epoch == 0) {
      // Every layer of this stack reports the epoch it answered at, and
      // LiveEngine starts at 1.
      for (size_t i = 0; i < group.size(); ++i) fail("answer reports epoch 0");
      continue;
    }
    // Epoch e is the seed content plus the first e - 1 Apply batches.
    auto engine = prj::Engine::Create(log.ContentAt(epoch - 1),
                                      prj::AccessKind::kDistance, &scoring);
    if (!engine.ok()) {
      fail("oracle engine: " + engine.status().ToString());
      continue;
    }
    ++report.epochs;
    for (const Sample* s : group) {
      ++report.checked;
      ++report.checked_by_kind[static_cast<size_t>(s->kind)];
      const uint64_t want = s->start + s->expected;
      auto truth = engine->TopK(s->query, RequestOptions(static_cast<int>(want)));
      if (!truth.ok()) {
        fail("oracle TopK: " + truth.status().ToString());
        continue;
      }
      std::vector<prj::ResultCombination> slice(
          truth->begin() + static_cast<std::ptrdiff_t>(
                               std::min<uint64_t>(s->start, truth->size())),
          truth->end());
      std::string why;
      if (!prj::BitIdenticalResults(s->combos, slice, &why)) {
        fail("epoch " + std::to_string(epoch) + " ranks " +
             std::to_string(s->start) + ".." + std::to_string(want) + ": " +
             why);
      }
    }
  }
  return report;
}

}  // namespace perfbench
