// The three workloads, each a pure function of its seed.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
#include "workload.hpp"

namespace perfbench {

namespace core = pgrid::core;
using pgrid::common::Rng;

namespace {

/// ~15 m sensor pitch whatever the count (the sensor radio reaches 25 m),
/// with the base station just off the grid's corner.
void size_region(core::RuntimeConfig& config, std::size_t sensors) {
  config.sensors.sensor_count = sensors;
  const double side = std::ceil(std::sqrt(double(sensors)));
  config.sensors.width_m = 15.0 * (side - 1.0) + 1.0;
  config.sensors.height_m = config.sensors.width_m;
  config.sensors.base_pos = {-5.0, -5.0, 0.0};
}

void sort_arrivals(std::vector<Arrival>& arrivals) {
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.at_s < b.at_s;
                   });
}

// city: many flow-tier regions in one lockstep world, light per-region
// load.
WorkloadSpec make_city(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.base.seed = seed;
  size_region(spec.base, 1458);
  spec.base.advertise_sensor_services = false;
  spec.base.continuous_epochs = 4;
  spec.base.pool_threads = 1;
  spec.base.flow.enabled = true;
  // The lockstep world runs its windows, barriers and mailbox on one lane;
  // the traced run replays it on kParallelLanes (see workload.hpp).
  spec.base.sharding.shards = 1;
  // 72 x 1,458 = 104,976 sensors: enough regions that the one-shot sample
  // supports a p95 tail.
  spec.regions = 72;
  spec.horizon_s = 30.0;
  Rng rng(seed ^ 0x6369747931ull);
  // Per region: AVG, MAX, a read and a continuous AVG, one of the four
  // forwarded to the ring neighbour over the backhaul.  Regions are built
  // alike, so aggregate answers repeat to the microsecond and the reads
  // supply the spread of the response distribution; read targets are
  // stratified by distance from the base station across regions, so every
  // seed samples the whole range of hop counts.
  const QueryKind kinds[] = {QueryKind::kAvg, QueryKind::kMax,
                             QueryKind::kRead, QueryKind::kContinuous};
  for (std::size_t r = 0; r < spec.regions; ++r) {
    const std::size_t forwarded = rng.index(4);
    for (std::size_t k = 0; k < 4; ++k) {
      Arrival a;
      a.region = r;
      a.target = k == forwarded ? (r + 1) % spec.regions : r;
      a.at_s = rng.uniform(0.5, spec.horizon_s);
      a.kind = kinds[k];
      a.read_quantile = (double(r) + rng.uniform01()) / double(spec.regions);
      spec.arrivals.push_back(a);
    }
    spec.transfers.push_back({r, (r + 1) % spec.regions,
                              rng.uniform(0.5, spec.horizon_s), 1u << 20});
  }
  sort_arrivals(spec.arrivals);
  return spec;
}

// field: one packet-tier region with runtime defaults (but one compute
// thread), the paper's four query classes, and walkers that keep the
// topology changing.
WorkloadSpec make_field(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.base.seed = seed;
  size_region(spec.base, 900);
  spec.base.continuous_epochs = 4;
  // One compute thread, as in the other workloads.  The default (one per
  // core) makes the configuration depend on the machine, and its fork-join
  // barrier in every solver iteration stalls whenever any core is busy
  // elsewhere: it doubled the run-to-run spread of run_s.
  spec.base.pool_threads = 1;
  spec.sharded = false;
  spec.regions = 1;
  spec.horizon_s = 120.0;
  spec.walkers = 4;
  Rng rng(seed ^ 0x6669656c64ull);
  // The seed moves arrival times and targets, never the class mix, so host
  // time does not swing with it.  Aggregates are the majority of one-shot
  // queries, which keeps the median estimate error inside one class.
  // Per twelve arrivals: a read, four AVG, four MAX, a TEMP_DISTRIBUTION
  // and two continuous AVG.
  const QueryKind mix[] = {QueryKind::kRead, QueryKind::kAvg, QueryKind::kMax,
                           QueryKind::kContinuous, QueryKind::kAvg,
                           QueryKind::kMax, QueryKind::kDistribution,
                           QueryKind::kAvg, QueryKind::kMax,
                           QueryKind::kContinuous, QueryKind::kAvg,
                           QueryKind::kMax};
  for (std::size_t i = 0; i < 600; ++i) {
    Arrival a;
    a.at_s = rng.uniform(1.0, spec.horizon_s);
    a.kind = mix[i % 12];
    a.read_quantile = rng.uniform01();
    spec.arrivals.push_back(a);
  }
  sort_arrivals(spec.arrivals);
  return spec;
}

// storm: every policy layer on, under four chaos mixes at once.
WorkloadSpec make_storm(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.base.seed = seed;
  size_region(spec.base, 49);
  spec.base.advertise_sensor_services = false;
  spec.base.continuous_epochs = 4;
  spec.base.pool_threads = 1;
  spec.base.reliability.enabled = true;
  spec.base.flow.enabled = true;
  spec.base.sharing.enabled = true;
  spec.base.sharing.max_active = 16;
  spec.base.failover.enabled = true;
  spec.base.sharding.shards = 1;  // as in city
  // Many small regions rather than a few large ones: about the same host
  // work, but 128 independent fault schedules per run.  The response tail
  // is set by how many one-shots the faults happen to block; with four
  // large regions it swung by a third from seed to seed.
  spec.regions = 128;
  const char* mixes[] = {"disconnection-heavy", "lossy-mesh",
                         "partition-storm", "station-outage"};
  for (std::size_t r = 0; r < spec.regions; ++r) {
    spec.chaos_mix.push_back(mixes[r % 4]);
  }
  spec.faults_per_region = 10;
  spec.horizon_s = 120.0;
  Rng rng(seed ^ 0x73746f726dull);
  const char* functions[] = {"AVG", "MAX", "MIN", "SUM", "COUNT"};
  const QueryKind one_shot[] = {QueryKind::kAvg, QueryKind::kMax,
                                QueryKind::kRead};
  for (std::size_t r = 0; r < spec.regions; ++r) {
    // Standing aggregates: 5 functions x 2 epoch lengths, so compatible
    // subscriptions overlap and coalesce into shared groups.
    for (std::size_t i = 0; i < 40; ++i) {
      Arrival a;
      a.region = a.target = r;
      a.at_s = rng.uniform(1.0, spec.horizon_s - 10.0);
      a.kind = QueryKind::kContinuous;
      a.function = functions[i % 5];
      a.epoch_s = (i / 5) % 2 == 0 ? 1.0 : 2.0;
      spec.arrivals.push_back(a);
    }
    // Handheld one-shots arriving through the same faults: 2,560 in all,
    // so the p99 tail rests on about 20 answers beyond it rather than 10.
    for (std::size_t i = 0; i < 20; ++i) {
      Arrival a;
      a.region = a.target = r;
      a.at_s = rng.uniform(1.0, spec.horizon_s - 10.0);
      a.kind = one_shot[i % 3];
      a.read_quantile = rng.uniform01();
      spec.arrivals.push_back(a);
    }
  }
  sort_arrivals(spec.arrivals);
  return spec;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"city", "field", "storm"};
  return names;
}

WorkloadSpec make_workload(const std::string& name, std::uint64_t seed) {
  WorkloadSpec spec;
  if (name == "city") {
    spec = make_city(seed);
  } else if (name == "field") {
    spec = make_field(seed);
  } else if (name == "storm") {
    spec = make_storm(seed);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  spec.seed = seed;
  return spec;
}

namespace {

std::string number_text(double v) {
  std::string text = std::to_string(v);
  text.erase(text.find_last_not_of('0') + 1);
  if (text.back() == '.') text.pop_back();
  return text;
}

std::string select_text(const Arrival& a) {
  switch (a.kind) {
    case QueryKind::kRead:
      return "SELECT temp FROM sensors WHERE sensor = " +
             std::to_string(a.sensor_index);
    case QueryKind::kAvg:
      return "SELECT AVG(temp) FROM sensors";
    case QueryKind::kMax:
      return "SELECT MAX(temp) FROM sensors";
    case QueryKind::kDistribution:
      return "SELECT TEMP_DISTRIBUTION(temp) FROM sensors";
    case QueryKind::kContinuous:
      return "SELECT " + a.function + "(temp) FROM sensors";
  }
  return {};
}

}  // namespace

std::string query_text(const Arrival& a) {
  std::string text = select_text(a);
  if (a.kind == QueryKind::kContinuous) {
    text += " EPOCH DURATION " + number_text(a.epoch_s);
  }
  return text;
}

}  // namespace perfbench
