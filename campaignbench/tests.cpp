// The campaign benchmark's own tests, on every workload at smoke size.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>

#include "metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace campaignbench {
namespace {

WorkloadOptions smoke_options() {
  WorkloadOptions options;
  options.seed = 7;
  options.threads = 2;
  options.smoke = true;
  options.work_dir = ".bench_work/tests";
  return options;
}

RepResult traced_rep(Workload& workload) {
  set_tracing(true);
  RepResult rep = workload.run(true);
  set_tracing(false);
  return rep;
}

class EveryWorkload : public ::testing::TestWithParam<std::string> {};

// The decorator must not change a single record: in-process workloads
// compare output digests, sharded_single's verify() compares the traced
// in-process replay of its manifests with the undecorated campaign.
TEST_P(EveryWorkload, DecoratedRecordsAreBitIdentical) {
  auto workload = make_workload(GetParam(), smoke_options());
  const RepResult plain = workload->run(false);
  const RepResult traced = traced_rep(*workload);
  EXPECT_EQ(plain.digest, traced.digest);
  EXPECT_EQ(plain.failed, 0u);
  EXPECT_EQ(traced.failed, 0u);
  EXPECT_EQ(workload->verify(), "");
}

TEST_P(EveryWorkload, SelfTimesNeverExceedWallTimesThreads) {
  auto workload = make_workload(GetParam(), smoke_options());
  const RepResult rep = traced_rep(*workload);
  ASSERT_FALSE(rep.spans.empty());
  std::int64_t first = rep.spans.front().start_ns;
  std::int64_t last = rep.spans.front().end_ns;
  std::set<std::uint32_t> threads;
  for (const Span& s : rep.spans) {
    first = std::min(first, s.start_ns);
    last = std::max(last, s.end_ns);
    threads.insert(s.thread);
  }
  double self_sum = 0.0;
  for (const double s : self_seconds(rep.spans)) {
    EXPECT_GE(s, 0.0);
    self_sum += s;
  }
  const double wall = 1e-9 * static_cast<double>(last - first);
  EXPECT_LE(self_sum, wall * static_cast<double>(threads.size()));
}

TEST_P(EveryWorkload, CountMetricsRepeatExactly) {
  const auto counts = [&] {
    auto workload = make_workload(GetParam(), smoke_options());
    const RepResult rep = traced_rep(*workload);
    LayerMetrics out;
    for (const MetricSpec& m : kPerLayer) {
      const auto it = rep.layers.find(m.name);
      if (is_exact_count(m) && it != rep.layers.end()) {
        out[m.name] = it->second;
      }
    }
    return out;
  };
  const LayerMetrics a = counts();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, counts());
}

INSTANTIATE_TEST_SUITE_P(Workloads, EveryWorkload,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace campaignbench
