// Self-tests of the benchmark: determinism of the modelled metrics, seeded
// schedules, the tail-percentile rule, and a reference gate that can fail.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

void expect_same_modelled(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.outcome_digest, b.outcome_digest);
  EXPECT_EQ(a.order_digest, b.order_digest);
  EXPECT_EQ(a.attempted, b.attempted);
  EXPECT_EQ(a.missed, b.missed);
  EXPECT_EQ(a.response_p50_s, b.response_p50_s);
  EXPECT_EQ(a.response_tail_s, b.response_tail_s);
  EXPECT_EQ(a.miss_rate, b.miss_rate);
  EXPECT_EQ(a.coverage_mean, b.coverage_mean);
  EXPECT_EQ(a.energy_mj_per_query, b.energy_mj_per_query);
  EXPECT_EQ(a.bytes_per_query, b.bytes_per_query);
  EXPECT_EQ(a.estimate_error_p50, b.estimate_error_p50);
}

// The self-tests run the benchmark's own workloads at full size, a few
// seconds per run in a Release build.
TEST(PerfbenchDeterminism, SameSeedRepeatsAndIgnoresLaneCount) {
  for (const char* name : {"city", "storm"}) {
    SCOPED_TRACE(name);
    const WorkloadSpec spec = make_workload(name, 11);
    ASSERT_EQ(spec.base.sharding.shards, 1u);
    const RunResult one = run_workload(spec, {});
    const RunResult again = run_workload(spec, {});
    const RunResult four = run_workload(spec, {kParallelLanes});
    EXPECT_TRUE(one.correct())
        << (one.failures.empty() ? "" : one.failures[0]);
    expect_same_modelled(one, again);
    expect_same_modelled(one, four);
  }
}

TEST(PerfbenchDeterminism, TracedRunMatchesUntraced) {
  const WorkloadSpec spec = make_workload("field", 5);
  const RunResult plain = run_workload(spec, {});
  Tracer tracer;
  const RunResult traced = run_workload(spec, {0, &tracer, 0.0});
  EXPECT_TRUE(plain.correct())
      << (plain.failures.empty() ? "" : plain.failures[0]);
  EXPECT_TRUE(traced.correct());
  expect_same_modelled(plain, traced);
  std::size_t slices = 0;
  for (const auto& span : tracer.spans()) {
    slices += span.name == "slice" ? 1 : 0;
  }
  EXPECT_EQ(slices, 120u);  // one per simulated second of the horizon
  EXPECT_NE(tracer.chrome_json().find("\"ph\":\"X\""), std::string::npos);
}

TEST(PerfbenchSchedule, SeedChangesArrivals) {
  for (const std::string& name : workload_names()) {
    SCOPED_TRACE(name);
    const WorkloadSpec a = make_workload(name, 1);
    const WorkloadSpec b = make_workload(name, 2);
    const WorkloadSpec a2 = make_workload(name, 1);
    ASSERT_EQ(a.arrivals.size(), a2.arrivals.size());
    bool same_as_a2 = true;
    for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
      same_as_a2 = same_as_a2 && a.arrivals[i].at_s == a2.arrivals[i].at_s &&
                   query_text(a.arrivals[i]) == query_text(a2.arrivals[i]);
    }
    EXPECT_TRUE(same_as_a2);
    std::size_t differing = 0;
    const std::size_t n = std::min(a.arrivals.size(), b.arrivals.size());
    for (std::size_t i = 0; i < n; ++i) {
      differing += a.arrivals[i].at_s != b.arrivals[i].at_s ? 1 : 0;
    }
    EXPECT_GT(differing, n / 2);
  }
}

TEST(PerfbenchStats, TailNeedsTenSamplesBeyond) {
  std::vector<double> samples(100);
  std::iota(samples.begin(), samples.end(), 1.0);  // 1..100
  auto tail = tail_percentile(samples);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->percentile, 90.0);  // p95 = 95 has only 5 beyond
  EXPECT_EQ(tail->value, 90.0);
  EXPECT_EQ(tail->samples, 100u);

  samples.resize(200);
  std::iota(samples.begin(), samples.end(), 1.0);
  tail = tail_percentile(samples);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->percentile, 95.0);  // rank 190 leaves exactly 10 beyond
  EXPECT_EQ(tail->value, 190.0);

  samples.assign({5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0,
                  12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0, 20.0});
  tail = tail_percentile(samples);  // unsorted input, 20 samples
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->percentile, 50.0);
  EXPECT_EQ(tail->value, 10.0);

  samples.resize(10);
  EXPECT_FALSE(tail_percentile(samples).has_value());
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(PerfbenchGate, WrongReferenceFailsTheRun) {
  EXPECT_TRUE(matches_reference(20.05, 20.0, 0.1));
  EXPECT_FALSE(matches_reference(20.5, 20.0, 0.1));

  const WorkloadSpec spec = make_workload("city", 3);
  const RunResult honest = run_workload(spec, {});
  EXPECT_TRUE(honest.correct());
  const RunResult wrong = run_workload(spec, {0, nullptr, 5.0});
  ASSERT_FALSE(wrong.correct());
  EXPECT_NE(wrong.failures.front().find("reference"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
