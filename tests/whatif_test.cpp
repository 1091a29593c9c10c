// Tests for the what-if simulator (the paper's third component): trialling
// models on clones must mirror real execution exactly and leave the real
// deployment untouched.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "partition/models.hpp"
#include "query/parser.hpp"

namespace pgrid {
namespace {

core::RuntimeConfig scenario_config() {
  core::RuntimeConfig config;
  config.sensors.sensor_count = 49;
  config.sensors.width_m = 91.0;
  config.sensors.height_m = 91.0;
  config.sensors.base_pos = {-5, -5, 0};
  config.sensors.noise_std = 0.0;
  config.advertise_sensor_services = false;
  config.pde_resolution = 13;
  return config;
}

sensornet::FireSource scenario_fire() {
  sensornet::FireSource fire;
  fire.pos = {60, 60, 0};
  fire.start = sim::SimTime::seconds(-3600.0);
  fire.spread_m_per_s = 0.0;
  return fire;
}

std::vector<partition::SolutionModel> candidate_models(
    core::PervasiveGridRuntime& rt, const std::string& q) {
  const auto parsed = query::parse_query(q);
  return partition::candidates_for(
      rt.classifier().classify(parsed.value()).inner);
}

/// The oracle for what_if_all: one what_if() per candidate model, in
/// candidate order, on the calling thread.  Outcomes must match
/// bit-for-bit, not approximately.
void expect_matches_serial_loop(core::PervasiveGridRuntime& rt,
                                const std::string& q) {
  const auto batched = rt.what_if_all(q);
  const auto models = candidate_models(rt, q);
  ASSERT_EQ(batched.size(), models.size());
  for (std::size_t i = 0; i < models.size(); ++i) {
    const auto serial = rt.what_if(q, models[i]);
    ASSERT_TRUE(serial.ok) << serial.error;
    EXPECT_EQ(batched[i].model, serial.model);
    EXPECT_EQ(batched[i].ok, serial.ok);
    EXPECT_EQ(batched[i].actual.value, serial.actual.value);
    EXPECT_EQ(batched[i].actual.energy_j, serial.actual.energy_j);
    EXPECT_EQ(batched[i].actual.response_s, serial.actual.response_s);
    EXPECT_EQ(batched[i].actual.data_bytes, serial.actual.data_bytes);
    EXPECT_EQ(batched[i].actual.compute_ops, serial.actual.compute_ops);
    EXPECT_EQ(batched[i].handheld_response_s, serial.handheld_response_s);
    EXPECT_EQ(batched[i].telemetry.network_bytes(),
              serial.telemetry.network_bytes());
  }
}

class WhatIfFixture : public ::testing::Test {
 protected:
  WhatIfFixture() : runtime_(scenario_config()) {
    runtime_.field().ignite(scenario_fire());
  }
  core::PervasiveGridRuntime runtime_;
};

TEST_F(WhatIfFixture, CloneMirrorsRealExecution) {
  const std::string q = "SELECT AVG(temp) FROM sensors";
  const auto trial =
      runtime_.what_if(q, partition::SolutionModel::kTreeAggregate);
  ASSERT_TRUE(trial.ok) << trial.error;
  const auto real =
      runtime_.submit_and_run(q, partition::SolutionModel::kTreeAggregate);
  ASSERT_TRUE(real.ok);
  EXPECT_DOUBLE_EQ(trial.actual.value, real.actual.value);
  EXPECT_DOUBLE_EQ(trial.actual.energy_j, real.actual.energy_j);
  EXPECT_EQ(trial.actual.data_bytes, real.actual.data_bytes);
}

TEST_F(WhatIfFixture, TrialSpendsNoRealEnergy) {
  const auto before = runtime_.network().battery_energy_consumed();
  const auto sim_before = runtime_.simulator().now();
  runtime_.what_if("SELECT AVG(temp) FROM sensors",
                   partition::SolutionModel::kAllToBase);
  EXPECT_DOUBLE_EQ(runtime_.network().battery_energy_consumed(), before);
  EXPECT_EQ(runtime_.simulator().now(), sim_before);
  EXPECT_EQ(runtime_.decision_maker().observations(
                query::QueryClass::kAggregate,
                partition::SolutionModel::kAllToBase),
            0u)
      << "trials must not contaminate the learner";
}

TEST_F(WhatIfFixture, WhatIfAllCoversTheCandidateSet) {
  const auto outcomes = runtime_.what_if_all("SELECT AVG(temp) FROM sensors");
  ASSERT_EQ(outcomes.size(), 4u);  // aggregate candidates
  std::set<partition::SolutionModel> models;
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok) << outcome.error;
    models.insert(outcome.model);
  }
  EXPECT_EQ(models.size(), 4u);
}

TEST_F(WhatIfFixture, OracleLabelFromTrialsFeedsTheLearner) {
  // The measured-oracle workflow of EXP-P6, through the public API: trial
  // every model, label the cheapest, teach the decision maker.
  const std::string q = "SELECT AVG(temp) FROM sensors";
  const auto outcomes = runtime_.what_if_all(q);
  const auto* best = &outcomes.front();
  for (const auto& outcome : outcomes) {
    if (outcome.actual.energy_j < best->actual.energy_j) best = &outcome;
  }
  auto parsed = query::parse_query(q);
  const auto cls = runtime_.classifier().classify(parsed.value());
  auto ctx = runtime_.execution_context();
  const auto profile = partition::profile_from(ctx, cls);
  runtime_.decision_maker().add_example(cls.inner, query::CostMetric::kNone,
                                        profile, best->model);
  runtime_.decision_maker().retrain();
  EXPECT_EQ(runtime_.decision_maker().decide(cls.inner,
                                             query::CostMetric::kNone,
                                             profile),
            best->model);
}

TEST_F(WhatIfFixture, ParallelTrialsBitIdenticalToSerial) {
  // what_if_all evaluates candidate clones concurrently on the runtime's
  // pool; every clone is an isolated deterministic deployment, so the
  // parallel outcomes must be bit-for-bit a serial what_if() loop, in
  // candidate order.  4 pool workers run the 4 trials at once.
  auto config = scenario_config();
  config.pool_threads = 4;
  core::PervasiveGridRuntime rt(config);
  rt.field().ignite(scenario_fire());
  expect_matches_serial_loop(rt, "SELECT AVG(temp) FROM sensors");
}

TEST_F(WhatIfFixture, ParallelTrialsLeaveTheRealDeploymentUntouched) {
  auto config = scenario_config();
  config.pool_threads = 4;
  core::PervasiveGridRuntime rt(config);
  const auto energy_before = rt.network().battery_energy_consumed();
  const auto now_before = rt.simulator().now();
  const auto outcomes = rt.what_if_all("SELECT AVG(temp) FROM sensors");
  ASSERT_EQ(outcomes.size(), 4u);
  for (const auto& outcome : outcomes) EXPECT_TRUE(outcome.ok) << outcome.error;
  EXPECT_DOUBLE_EQ(rt.network().battery_energy_consumed(), energy_before);
  EXPECT_EQ(rt.simulator().now(), now_before);
}

TEST_F(WhatIfFixture, SerialThresholdForcesSerialPathBitIdentically) {
  // A simple query has a single candidate model, below what_if_all's
  // parallel threshold, so it takes the serial fallback even with idle
  // pool workers — and must still answer exactly like what_if().
  auto config = scenario_config();
  config.pool_threads = 4;
  core::PervasiveGridRuntime rt(config);
  rt.field().ignite(scenario_fire());
  const std::string q = "SELECT temp FROM sensors WHERE sensor = 24";
  ASSERT_EQ(candidate_models(rt, q).size(), 1u);
  expect_matches_serial_loop(rt, q);
}

TEST_F(WhatIfFixture, BatchedTrialsWithFewerWorkersThanCandidates) {
  // 2 pool workers split 4 candidates into two batches of two: the batch
  // boundaries must not leak into the outcomes.
  auto config = scenario_config();
  config.pool_threads = 2;
  core::PervasiveGridRuntime rt(config);
  rt.field().ignite(scenario_fire());
  expect_matches_serial_loop(rt, "SELECT AVG(temp) FROM sensors");
}

TEST_F(WhatIfFixture, ParseErrorSurfaces) {
  const auto outcomes = runtime_.what_if_all("SELEKT");
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
}

}  // namespace
}  // namespace pgrid
