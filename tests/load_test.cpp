// Seeded soak for the multi-query sharing layer under sustained load:
// hundreds of overlapping continuous queries pushed through chaos while a
// composition workload runs sub-plan dedup alongside.  After the run
// drains, the checks are structural, not statistical —
//
//  - every query completed exactly once (answered or shed, never both,
//    never twice);
//  - the cost ledger conserved through per-subscriber reattribution, with
//    no open spans and an exactly-empty kernel;
//  - nothing leaked: no live shared-tree groups, no admission queue
//    entries, no in-flight dedup waiters, no force-packet holds on the
//    flow tier;
//  - sharing actually happened (epoch deliveries exceed collections run).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "agent/agent.hpp"
#include "compose/manager.hpp"
#include "compose/provider.hpp"
#include "core/runtime.hpp"
#include "sim/chaos.hpp"
#include "sim/invariants.hpp"

namespace pgrid {
namespace {

struct SoakSetup {
  bool sharing = true;
  bool flow = false;
  std::uint64_t seed = 1;
  std::size_t keys = 8;             ///< distinct canonical groups
  std::size_t subscribers = 25;     ///< queries per group
  std::size_t compose_waves = 6;    ///< dedup'd composite executions
};

struct SoakResult {
  std::size_t total = 0;
  std::size_t ok = 0;
  std::size_t shed = 0;
  std::size_t failed = 0;
  std::size_t multi_completions = 0;  ///< queries completing != once
  std::size_t composites_ok = 0;
  std::uint64_t dedup_hits = 0;
  std::vector<std::string> failure_samples;  ///< first few failure reasons
};

/// The query for (key k, subscriber j): four WHERE shapes x two cadences
/// give eight canonical groups; the aggregate function cycles through all
/// five finalizers, which deliberately does NOT split a group.
std::string soak_query(std::size_t key, std::size_t subscriber) {
  static const char* kFns[] = {"AVG", "MAX", "MIN", "SUM", "COUNT"};
  static const char* kWheres[] = {"", " WHERE temp > 0", " WHERE temp > 10",
                                  " WHERE temp > 15"};
  const int epoch = 2 + static_cast<int>(key % 2);
  return std::string("SELECT ") + kFns[subscriber % 5] +
         "(temp) FROM sensors" + kWheres[key % 4] + " EPOCH DURATION " +
         std::to_string(epoch);
}

SoakResult run_soak(const SoakSetup& setup, core::PervasiveGridRuntime** out,
                    std::unique_ptr<core::PervasiveGridRuntime>& holder,
                    std::unique_ptr<compose::CompositionManager>& manager) {
  core::RuntimeConfig config;
  config.seed = setup.seed;
  config.sensors.sensor_count = 25;
  config.sensors.width_m = 61.0;
  config.sensors.height_m = 61.0;
  config.sensors.base_pos = {-5.0, -5.0, 0.0};
  config.advertise_sensor_services = false;
  config.continuous_epochs = 4;
  config.reliability.enabled = true;
  config.flow.enabled = setup.flow;
  config.sharing.enabled = setup.sharing;
  config.sharing.max_active = 16;
  config.sharing.max_queue = 256;
  holder = std::make_unique<core::PervasiveGridRuntime>(config);
  auto& runtime = *holder;
  *out = &runtime;

  sim::ChaosEngine engine(runtime.network(), setup.seed);
  sim::ChaosConfig chaos;
  chaos.horizon = sim::SimTime::seconds(40.0);
  chaos.fault_count = 12;
  chaos.mix = sim::ChaosMix::lossy_mesh();
  engine.arm(chaos);

  SoakResult result;
  result.total = setup.keys * setup.subscribers;
  std::vector<int> completions(result.total, 0);
  auto& sim = runtime.simulator();

  // Staggered arrivals: each group's subscribers trickle in across the
  // chaos horizon, so joins land in every phase (fault active, healing,
  // healed) and groups repeatedly grow, drain, and re-form.
  for (std::size_t k = 0; k < setup.keys; ++k) {
    for (std::size_t j = 0; j < setup.subscribers; ++j) {
      const std::size_t slot = k * setup.subscribers + j;
      const double at_s = 1.0 + 1.4 * static_cast<double>(j) +
                          0.1 * static_cast<double>(k);
      sim.schedule(sim::SimTime::seconds(at_s), [&runtime, &completions,
                                                 &result, slot, k, j] {
        runtime.submit(soak_query(k, j),
                       [&completions, &result, slot, k, j](
                           core::QueryOutcome out) {
                         ++completions[slot];
                         if (out.shed) {
                           ++result.shed;
                         } else if (out.ok) {
                           ++result.ok;
                         } else {
                           ++result.failed;
                           if (result.failure_samples.size() < 8) {
                             result.failure_samples.push_back(
                                 soak_query(k, j) + " -> " +
                                 (out.error.empty() ? "epochs all failed"
                                                    : out.error));
                           }
                         }
                       });
      });
    }
  }

  // Composition load riding the same deployment: identical sub-plans fan
  // out in waves with dedup on, so resolved plans are reused within each
  // wave and across waves inside the validity window.
  auto add_provider = [&](const std::string& name, double x) {
    net::NodeConfig nc;
    nc.pos = {x, -10.0, 0.0};
    nc.radio = net::LinkClass::wifi();
    nc.unlimited_energy = true;
    const auto node = runtime.network().add_node(nc);
    discovery::ServiceDescription service;
    service.name = name;
    service.service_class = "ComputeService";
    auto provider = std::make_unique<compose::ServiceProviderAgent>(
        name, node, service, 1e8);
    auto* raw = provider.get();
    const auto id = runtime.agents().register_agent(std::move(provider));
    raw->service().provider = id;
    discovery::advertise(runtime.agents(), id, runtime.broker().id(),
                         raw->service());
  };
  add_provider("compute-a", 10.0);
  add_provider("compute-b", 20.0);
  const auto client = runtime.agents().register_agent(
      std::make_unique<agent::LambdaAgent>(
          "load-client", runtime.sensors().base_station(),
          [](agent::LambdaAgent&, const agent::Envelope&) {}));
  manager = std::make_unique<compose::CompositionManager>(
      runtime.agents(), client, runtime.broker().id());
  for (std::size_t wave = 0; wave < setup.compose_waves; ++wave) {
    sim.schedule(sim::SimTime::seconds(4.0 + 6.0 * static_cast<double>(wave)),
                 [&manager, &result] {
                   compose::TaskGraph graph;
                   for (std::size_t t = 0; t < 3; ++t) {
                     compose::TaskSpec spec;
                     spec.name = "analyze-" + std::to_string(t);
                     spec.service_class = "ComputeService";
                     graph.add_task(spec);
                   }
                   compose::CompositionOptions options;
                   options.dedup_discoveries = true;
                   options.dedup_validity = sim::SimTime::seconds(5.0);
                   manager->execute(graph, options,
                                    [&result](compose::CompositionReport r) {
                                      if (r.success) ++result.composites_ok;
                                      result.dedup_hits += r.dedup_hits;
                                    });
                 });
  }

  sim.run();

  for (const int count : completions) {
    if (count != 1) ++result.multi_completions;
  }
  return result;
}

void expect_drained_clean(core::PervasiveGridRuntime& runtime,
                          compose::CompositionManager& manager) {
  EXPECT_EQ(sim::check_ledger_conservation(runtime.telemetry()),
            std::nullopt);
  EXPECT_EQ(sim::check_no_open_spans(runtime.telemetry()), std::nullopt);
  EXPECT_EQ(sim::check_kernel_pending_exact(runtime.simulator()),
            std::nullopt);
  EXPECT_EQ(manager.dedup_in_flight(), 0u) << "leaked dedup waiters";
  if (auto* sharing = runtime.sharing()) {
    EXPECT_EQ(sharing->registry().active_groups(), 0u)
        << "leaked shared-tree groups";
    EXPECT_EQ(sharing->active(), 0u);
    EXPECT_EQ(sharing->queue_depth(), 0u) << "leaked admission queue entries";
  }
  if (auto* channel = runtime.reliable_channel()) {
    EXPECT_EQ(channel->in_flight(), 0u) << "leaked reliable transfers";
  }
}

TEST(LoadSoak, SharedSustainedLoadDrainsClean) {
  SoakSetup setup;
  setup.sharing = true;
  setup.seed = 3;
  core::PervasiveGridRuntime* runtime = nullptr;
  std::unique_ptr<core::PervasiveGridRuntime> holder;
  std::unique_ptr<compose::CompositionManager> manager;
  const auto result = run_soak(setup, &runtime, holder, manager);

  EXPECT_EQ(result.multi_completions, 0u) << "exactly-once violated";
  EXPECT_EQ(result.ok + result.shed + result.failed, result.total);
  // Reliability + sharing keep the answer rate high through lossy chaos;
  // anything shed was an explicit admission decision, not a silent drop.
  EXPECT_GE(result.ok, (result.total * 3) / 4);
  EXPECT_EQ(result.composites_ok, setup.compose_waves);
  EXPECT_GE(result.dedup_hits, 2u * setup.compose_waves)
      << "each 3-task wave should resolve its sub-plan once";

  auto& sharing = *runtime->sharing();
  EXPECT_GE(sharing.stats().shared_queries, result.ok);
  // The sharing invariant under load: far more per-subscriber epochs were
  // delivered than shared collections run.
  const auto& tree = sharing.registry().stats();
  EXPECT_GT(tree.fanouts, tree.collections);
  EXPECT_EQ(tree.groups_created, tree.groups_torn_down);

  expect_drained_clean(*runtime, *manager);
}

TEST(LoadSoak, SharedLoadWithFlowTierReleasesEveryHold) {
  SoakSetup setup;
  setup.sharing = true;
  setup.flow = true;
  setup.seed = 5;
  setup.subscribers = 12;  // flow variant: same shape, lighter sweep
  core::PervasiveGridRuntime* runtime = nullptr;
  std::unique_ptr<core::PervasiveGridRuntime> holder;
  std::unique_ptr<compose::CompositionManager> manager;
  const auto result = run_soak(setup, &runtime, holder, manager);

  EXPECT_EQ(result.multi_completions, 0u);
  EXPECT_EQ(result.ok + result.shed + result.failed, result.total);
  std::string failures;
  for (const auto& f : result.failure_samples) failures += "\n  " + f;
  EXPECT_GE(result.ok, (result.total * 3) / 4)
      << "ok " << result.ok << " shed " << result.shed << " failed "
      << result.failed << failures;
  ASSERT_NE(runtime->flow_model(), nullptr);
  expect_drained_clean(*runtime, *manager);
}

TEST(LoadSoak, UnsharedControlMixDrainsClean) {
  // Control: the same harness with the sharing layer disabled.  Slimmer
  // (every query runs its own collection), but the exactly-once and
  // conservation guarantees must hold identically.
  SoakSetup setup;
  setup.sharing = false;
  setup.seed = 9;
  setup.keys = 4;
  setup.subscribers = 3;
  setup.compose_waves = 2;
  core::PervasiveGridRuntime* runtime = nullptr;
  std::unique_ptr<core::PervasiveGridRuntime> holder;
  std::unique_ptr<compose::CompositionManager> manager;
  const auto result = run_soak(setup, &runtime, holder, manager);

  EXPECT_EQ(result.multi_completions, 0u);
  EXPECT_EQ(result.shed, 0u) << "no admission layer, nothing may shed";
  EXPECT_EQ(result.ok + result.failed, result.total);
  EXPECT_GE(result.ok, (result.total * 3) / 4);
  EXPECT_EQ(runtime->sharing(), nullptr);
  expect_drained_clean(*runtime, *manager);
}

}  // namespace
}  // namespace pgrid
