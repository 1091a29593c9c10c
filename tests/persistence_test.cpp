// Tests for decision-maker experience persistence: save/load round-trips,
// tree retraining on load, calibration restoration, and rejection of
// malformed input.
#include <gtest/gtest.h>

#include <cfloat>
#include <limits>
#include <vector>

#include "partition/persistence.hpp"
#include "text_oracles.hpp"

namespace pgrid::partition {
namespace {

NetworkProfile profile_for_test() {
  NetworkProfile p;
  p.sensor_count = 100;
  p.avg_depth_hops = 5.0;
  p.max_depth_hops = 10.0;
  p.cluster_count = 10;
  p.grid_flops_per_s = 1e9;
  return p;
}

TEST(Persistence, EmptyMakerRoundTrips) {
  DecisionMaker maker;
  const auto text = save_experience(maker);
  DecisionMaker restored;
  const auto loaded = load_experience(text, restored);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value(), 0u);
  EXPECT_FALSE(restored.tree_trained());
}

TEST(Persistence, WriterMatchesIostreamOracle) {
  // The to_chars writer against the iostream writer it replaced, on a
  // trained learner with every model's calibration observed.
  DecisionMaker maker;
  EXPECT_EQ(save_experience(maker), text_oracles::save_experience(maker));
  const auto p = profile_for_test();
  for (int i = 0; i < 6; ++i) {
    maker.add_example(query::QueryClass::kAggregate, query::CostMetric::kNone,
                      p, SolutionModel::kClusterAggregate);
    maker.add_example(query::QueryClass::kComplex, query::CostMetric::kTime,
                      p, SolutionModel::kGridOffload);
    for (const auto model : all_models()) {
      const auto estimate =
          estimate_cost(p, query::QueryClass::kComplex, model);
      maker.observe(query::QueryClass::kComplex, model, estimate,
                    estimate.energy_j * (1.0 + 0.1 * i),
                    estimate.response_s / (3.0 + i));
    }
  }
  maker.retrain();
  EXPECT_EQ(save_experience(maker), text_oracles::save_experience(maker));
  std::string appended = "prefix:";
  save_experience(maker, appended);
  EXPECT_EQ(appended, "prefix:" + save_experience(maker))
      << "the appending form writes the same image after what is there";
}

TEST(Persistence, EdgeCalibrationsMatchOracleAndRoundTrip) {
  // Finite edge doubles only: load_experience's stream extraction rejects
  // "nan" and "inf", so non-finite calibrations never reload.
  for (const double v : {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
                         DBL_MAX, 0.1, 1e-300, 7.0, -2.0}) {
    DecisionMaker maker;
    maker.restore_calibration(query::QueryClass::kAggregate,
                              SolutionModel::kTreeAggregate, v, 3, -v, 5);
    const std::string text = save_experience(maker);
    EXPECT_EQ(text, text_oracles::save_experience(maker)) << v;
    DecisionMaker restored;
    ASSERT_TRUE(load_experience(text, restored).ok()) << v;
    EXPECT_EQ(save_experience(restored), text) << v;
  }
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    DecisionMaker maker;
    maker.restore_calibration(query::QueryClass::kAggregate,
                              SolutionModel::kTreeAggregate, v, 3, 1.0, 5);
    const std::string text = save_experience(maker);
    EXPECT_EQ(text, text_oracles::save_experience(maker));
    DecisionMaker restored;
    EXPECT_FALSE(load_experience(text, restored).ok()) << v;
  }
}

TEST(Persistence, SamplesAndTreeSurviveRoundTrip) {
  DecisionMaker maker;
  const auto p = profile_for_test();
  for (int i = 0; i < 10; ++i) {
    maker.add_example(query::QueryClass::kAggregate,
                      query::CostMetric::kNone, p,
                      SolutionModel::kClusterAggregate);
    maker.add_example(query::QueryClass::kComplex, query::CostMetric::kTime,
                      p, SolutionModel::kGridOffload);
  }
  maker.retrain();
  const auto decision_before = maker.decide(
      query::QueryClass::kAggregate, query::CostMetric::kNone, p);

  DecisionMaker restored;
  const auto loaded = load_experience(save_experience(maker), restored);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value(), 20u);
  EXPECT_TRUE(restored.tree_trained()) << "tree retrains on load";
  EXPECT_EQ(restored.decide(query::QueryClass::kAggregate,
                            query::CostMetric::kNone, p),
            decision_before);
  EXPECT_EQ(restored.decide(query::QueryClass::kComplex,
                            query::CostMetric::kTime, p),
            SolutionModel::kGridOffload);
}

TEST(Persistence, CalibrationsSurviveRoundTrip) {
  DecisionMaker maker;
  const auto p = profile_for_test();
  const auto estimate = estimate_cost(p, query::QueryClass::kAggregate,
                                      SolutionModel::kTreeAggregate);
  for (int i = 0; i < 7; ++i) {
    maker.observe(query::QueryClass::kAggregate,
                  SolutionModel::kTreeAggregate, estimate,
                  estimate.energy_j * 3.0, estimate.response_s * 0.5);
  }
  DecisionMaker restored;
  ASSERT_TRUE(load_experience(save_experience(maker), restored).ok());
  EXPECT_EQ(restored.observations(query::QueryClass::kAggregate,
                                  SolutionModel::kTreeAggregate),
            7u);
  EXPECT_NEAR(restored.energy_calibration(query::QueryClass::kAggregate,
                                          SolutionModel::kTreeAggregate),
              3.0, 1e-9);
  EXPECT_NEAR(restored.response_calibration(query::QueryClass::kAggregate,
                                            SolutionModel::kTreeAggregate),
              0.5, 1e-9);
  // Untouched cells stay neutral.
  EXPECT_NEAR(restored.energy_calibration(query::QueryClass::kComplex,
                                          SolutionModel::kGridOffload),
              1.0, 1e-12);
}

TEST(Persistence, MalformedInputRejected) {
  DecisionMaker maker;
  EXPECT_FALSE(load_experience("", maker).ok());
  EXPECT_FALSE(load_experience("wrong-header\n", maker).ok());
  EXPECT_FALSE(
      load_experience("pgrid-experience-v1\nsample 1 2 -> \n", maker).ok());
  EXPECT_FALSE(
      load_experience("pgrid-experience-v1\nsample 1 2 3 -> 1\n", maker)
          .ok())
      << "feature count mismatch";
  EXPECT_FALSE(
      load_experience("pgrid-experience-v1\ncal 0 99 1 1 1 1\n", maker).ok())
      << "model index out of range";
  EXPECT_FALSE(
      load_experience("pgrid-experience-v1\nbogus record\n", maker).ok());
}

TEST(Persistence, OutOfRangeSampleValuesRejected) {
  // Labels index a per-model table and features a per-value child table
  // in the decision tree; hostile values must fail the load cleanly
  // instead of reaching the retrain.
  const char* hostile[] = {
      "pgrid-experience-v1\nsample 1 0 0 0 0 0 -> 1000000000\n",
      "pgrid-experience-v1\nsample 1 0 0 0 0 0 -> 6\n",
      "pgrid-experience-v1\nsample 1 0 0 0 0 0 -> -1\n",
      "pgrid-experience-v1\nsample 3 0 0 0 0 0 -> 1\n",
      "pgrid-experience-v1\nsample 0 0 0 0 2 0 -> 1\n",
      "pgrid-experience-v1\nsample 0 0 -1 0 0 0 -> 1\n",
      "pgrid-experience-v1\nsample 0 0 0 0 0 2147483647 -> 1\n",
  };
  for (const char* text : hostile) {
    DecisionMaker maker;
    EXPECT_FALSE(load_experience(text, maker).ok()) << text;
    EXPECT_TRUE(maker.samples().empty()) << text;
  }
  // The extremes of the valid domain still load and train.
  DecisionMaker maker;
  const auto loaded = load_experience(
      "pgrid-experience-v1\n"
      "sample 2 2 2 2 1 2 -> 5\n"
      "sample 0 0 0 0 0 0 -> 0\n",
      maker);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value(), 2u);
}

TEST(Persistence, LoadReplacesExistingExperience) {
  DecisionMaker donor;
  const auto p = profile_for_test();
  donor.add_example(query::QueryClass::kAggregate, query::CostMetric::kNone,
                    p, SolutionModel::kTreeAggregate);
  const auto text = save_experience(donor);

  DecisionMaker maker;
  for (int i = 0; i < 5; ++i) {
    maker.add_example(query::QueryClass::kComplex, query::CostMetric::kNone,
                      p, SolutionModel::kHandheldLocal);
  }
  ASSERT_TRUE(load_experience(text, maker).ok());
  EXPECT_EQ(maker.samples().size(), 1u);
}

}  // namespace
}  // namespace pgrid::partition
