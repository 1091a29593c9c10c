// Drives one workload through the library's public API: set up, run in
// simulated-time slices, check, measure, and (traced) probe each layer.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>

#include "common/rng.hpp"
#include "core/sharded.hpp"
#include "grid/temperature.hpp"
#include "net/mobility.hpp"
#include "net/routing.hpp"
#include "partition/executor.hpp"
#include "query/parser.hpp"
#include "sim/chaos.hpp"
#include "sim/invariants.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace core = pgrid::core;
namespace net = pgrid::net;
namespace sim = pgrid::sim;
namespace telemetry = pgrid::telemetry;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Repeats `fn` until it has run at least once and for ~2 ms; returns
/// seconds per call.
template <typename Fn>
double time_per_call(Fn&& fn) {
  const auto t0 = Clock::now();
  std::size_t calls = 0;
  while (calls == 0 || seconds_since(t0) < 2e-3) {
    fn();
    ++calls;
  }
  return seconds_since(t0) / double(calls);
}

std::size_t os_threads() {
  std::size_t n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

class Fnv {
 public:
  template <typename T>
  void add(T value) {
    const auto* p = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof value; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

/// One plain runtime or a sharded deployment behind one driving surface.
class Deployment {
 public:
  Deployment(const WorkloadSpec& spec, std::size_t lanes) {
    if (!spec.sharded) {
      solo_ = std::make_unique<core::PervasiveGridRuntime>(spec.base);
      return;
    }
    core::ShardedDeploymentConfig config;
    config.base = spec.base;
    config.base.sharding.shards = std::min(lanes, spec.regions);
    config.regions = spec.regions;
    // Regions must not overlap in the air: footprint plus both radio ranges.
    config.region_spacing_m = spec.base.sensors.width_m +
                              2.0 * spec.base.sensors.radio.range_m + 50.0;
    sharded_ = std::make_unique<core::ShardedDeployment>(config);
  }

  std::size_t regions() const { return solo_ ? 1 : sharded_->region_count(); }
  core::PervasiveGridRuntime& region(std::size_t r) {
    return solo_ ? *solo_ : sharded_->region(r);
  }
  core::ShardedDeployment* sharded() { return sharded_.get(); }

  void submit(const Arrival& a, const std::string& text,
              std::function<void(core::QueryOutcome)> done) {
    const auto at = sim::SimTime::seconds(a.at_s);
    if (solo_) {
      core::PervasiveGridRuntime* rt = solo_.get();
      rt->simulator().schedule_at(at, [rt, text, done = std::move(done)] {
        rt->submit(text, done);
      });
    } else if (a.target != a.region) {
      sharded_->submit_remote(a.region, a.target, at, text, std::move(done));
    } else {
      sharded_->submit(a.region, at, text, std::move(done));
    }
  }

  void run_until(sim::SimTime t) {
    if (solo_) {
      events_ += solo_->simulator().run_until(t);
    } else {
      sharded_->run_until(t);
    }
  }
  void run() {
    if (solo_) {
      events_ += solo_->simulator().run();
    } else {
      sharded_->run();
    }
  }

  std::uint64_t events() const {
    return solo_ ? events_ : sharded_->world().stats().events;
  }
  std::uint64_t windows() const {
    return solo_ ? 0 : sharded_->world().stats().windows;
  }
  std::size_t pending() {
    std::size_t total = 0;
    for (std::size_t r = 0; r < regions(); ++r) {
      total += region(r).simulator().pending();
    }
    return total;
  }

 private:
  std::unique_ptr<core::PervasiveGridRuntime> solo_;
  std::unique_ptr<core::ShardedDeployment> sharded_;
  std::uint64_t events_ = 0;
};

/// What one arrival's callback saw.  Each record is written only from the
/// lane of the region that answers it.
struct Record {
  int done = 0;
  bool ok = false;
  bool shed = false;
  bool shared = false;
  double coverage = 0.0;
  double response_s = 0.0;  ///< from the scheduled arrival
  double value = 0.0;
  double estimate_j = 0.0;
  double actual_j = 0.0;
  double cost_time_s = 0.0;  ///< the query's COST TIME limit (0 = none)
  bool reference_checked = false;
  double reference = 0.0;
  double tolerance = 0.0;
};

/// A heat source in every building, so AVG and MAX answers carry signal.
/// Broad and mild: walkers drift about a metre between a round's sampling
/// and its answer, which must move the field by far less than the
/// reference tolerance.
pgrid::sensornet::FireSource heat_source(const core::RuntimeConfig& config) {
  pgrid::sensornet::FireSource fire;
  const net::Vec3 origin = config.sensors.origin;
  fire.pos = {origin.x + 0.66 * config.sensors.width_m,
              origin.y + 0.6 * config.sensors.height_m, 0.0};
  fire.start = sim::SimTime::seconds(-3600.0);  // fully developed
  fire.spread_m_per_s = 0.0;
  fire.peak_celsius = 60.0;
  fire.initial_radius_m = 0.2 * config.sensors.width_m;
  return fire;
}

/// Sensor indices of a region, nearest to the base station first.
std::vector<std::size_t> sensors_by_distance(core::PervasiveGridRuntime& rt) {
  const auto& ids = rt.sensors().sensors();
  const net::Vec3 base = rt.network().node(rt.sensors().base_station()).pos;
  std::vector<double> d(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    d[i] = net::distance(rt.network().node(ids[i]).pos, base);
  }
  std::vector<std::size_t> order(ids.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&d](std::size_t a, std::size_t b) { return d[a] < d[b]; });
  return order;
}

class Run {
 public:
  static constexpr std::size_t kMinSetups = 3;
  static constexpr double kMinSetupSeconds = 0.3;

  Run(const WorkloadSpec& spec, const RunOptions& options)
      : spec_(spec), options_(options), tracer_(options.tracer) {}

  RunResult execute() {
    const auto setup_start = Clock::now();
    begin("setup", "core");
    set_up();
    end({{"regions", double(dep_->regions())},
         {"arrivals", double(arrivals_.size())},
         {"threads", double(out_.threads_after_setup)}});
    std::vector<double> setups = {seconds_since(setup_start)};

    const double drain_s = drive();
    check();
    measure();
    count_layers();
    // Probed after the gates and the digest: probes mutate caches and
    // ledgers.
    if (tracer_) probe_layers(drain_s);

    const auto teardown_start = Clock::now();
    begin("teardown", "core");
    tear_down();
    end();
    out_.run_s = drain_s + seconds_since(teardown_start);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    out_.cpu_s = double(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                 1e-6 * double(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
    out_.peak_rss_mb = double(usage.ru_maxrss) / 1024.0;

    // One build takes from tens of milliseconds (storm) to a few tenths of
    // a second (city), too short to time once on a shared host, so setup_s
    // is the median of several.  The extra builds come after the run and
    // are never run, and cpu_s and peak_rss_mb are read before them, so
    // that every metric but setup_s sees one build.
    double setup_total_s = setups.front();
    while (setups.size() < kMinSetups || setup_total_s < kMinSetupSeconds) {
      const auto start = Clock::now();
      set_up();
      setups.push_back(seconds_since(start));
      setup_total_s += setups.back();
      tear_down();
    }
    out_.setup_s = median(setups);
    return std::move(out_);
  }

 private:
  void begin(const char* name, const char* layer) {
    if (tracer_) tracer_->begin(name, layer);
  }
  double end(std::vector<std::pair<std::string, double>> args = {}) {
    return tracer_ ? tracer_->end(std::move(args)) : 0.0;
  }
  void fail(std::string what) { out_.failures.push_back(std::move(what)); }
  void layer(std::string name, double value, std::string unit) {
    out_.layers.push_back({std::move(name), value, std::move(unit)});
  }

  void set_up() {
    const std::size_t lanes =
        options_.lanes != 0 ? options_.lanes : spec_.base.sharding.shards;
    dep_ = std::make_unique<Deployment>(spec_, lanes);
    const std::size_t regions = dep_->regions();
    reference_.reserve(regions);
    for (std::size_t r = 0; r < regions; ++r) {
      core::PervasiveGridRuntime& rt = dep_->region(r);
      const auto fire = heat_source(rt.config());
      rt.field().ignite(fire);
      reference_.emplace_back(rt.config().ambient_celsius);
      reference_.back().ignite(fire);
    }
    if (core::ShardedDeployment* sharded = dep_->sharded()) {
      for (std::size_t r = 0; r < spec_.chaos_mix.size(); ++r) {
        sim::ChaosConfig chaos;
        chaos.horizon = sim::SimTime::seconds(spec_.horizon_s);
        chaos.fault_count = spec_.faults_per_region;
        chaos.mix = sim::mix_by_name(spec_.chaos_mix[r]);
        sharded->arm_chaos(r, chaos);
        sharded->arm_station_failover(r);
      }
    }
    if (spec_.walkers > 0) start_walkers();
    schedule_arrivals();
    if (core::ShardedDeployment* sharded = dep_->sharded()) {
      transfers_done_.assign(spec_.transfers.size(), 0);
      for (std::size_t i = 0; i < spec_.transfers.size(); ++i) {
        const Transfer& t = spec_.transfers[i];
        int* slot = &transfers_done_[i];
        sharded->transfer_remote(t.from, t.to, sim::SimTime::seconds(t.at_s),
                                 t.bytes, [slot](bool ok) {
                                   if (ok) ++*slot;
                                 });
      }
    }
    out_.threads_after_setup = os_threads();
  }

  void tear_down() {
    mobility_.reset();
    dep_.reset();
    reference_.clear();
    texts_.clear();
  }

  void start_walkers() {
    // Walkers start among the sensors farthest from the base station, so
    // they reshape the topology without cutting the base off.
    core::PervasiveGridRuntime& rt = dep_->region(0);
    const auto order = sensors_by_distance(rt);
    const std::size_t pool = std::max(spec_.walkers, order.size() / 10);
    pgrid::common::Rng pick(spec_.seed ^ 0x77616c6bull);
    std::vector<net::NodeId> walkers;
    while (walkers.size() < spec_.walkers) {
      const std::size_t index = order[order.size() - 1 - pick.index(pool)];
      const net::NodeId id = rt.sensors().sensors()[index];
      if (std::find(walkers.begin(), walkers.end(), id) == walkers.end()) {
        walkers.push_back(id);
      }
    }
    net::WaypointConfig wc;
    wc.width_m = spec_.base.sensors.width_m;
    wc.height_m = spec_.base.sensors.height_m;
    wc.horizon = sim::SimTime::seconds(spec_.horizon_s);
    // Always moving: one position update per walker per tick whatever the
    // seed, so the number of topology changes, and the host time spent
    // absorbing them, does not swing with drawn pauses.
    wc.min_pause = sim::SimTime::zero();
    wc.max_pause = sim::SimTime::zero();
    mobility_ = std::make_unique<net::WaypointMobility>(
        rt.network(), walkers, wc,
        pgrid::common::Rng(spec_.seed ^ 0x6d6f7665ull));
    mobility_->start();
  }

  void schedule_arrivals() {
    std::vector<std::vector<std::size_t>> by_distance;
    for (std::size_t r = 0; r < dep_->regions(); ++r) {
      by_distance.push_back(sensors_by_distance(dep_->region(r)));
    }
    arrivals_ = spec_.arrivals;
    records_.assign(arrivals_.size(), Record{});
    texts_.reserve(arrivals_.size());
    for (std::size_t i = 0; i < arrivals_.size(); ++i) {
      Arrival& a = arrivals_[i];
      const auto& ranked = by_distance[a.target];
      const auto rank =
          static_cast<std::size_t>(a.read_quantile * double(ranked.size()));
      a.sensor_index = ranked[std::min(rank, ranked.size() - 1)];
      texts_.push_back(query_text(a));
      // Under chaos the set of sensors that were up when a round sampled is
      // not observable from outside, so those answers are not
      // reference-checked.
      const bool checkable = a.target >= spec_.chaos_mix.size();
      dep_->submit(a, texts_.back(),
                   [this, i, checkable](core::QueryOutcome o) {
                     record(i, checkable, o);
                   });
    }
  }

  /// Runs in the lane of the region that answers arrival `i`.
  void record(std::size_t i, bool checkable, const core::QueryOutcome& o) {
    Record& rec = records_[i];
    const Arrival& a = arrivals_[i];
    core::PervasiveGridRuntime& rt = dep_->region(a.target);
    const auto now = rt.simulator().now();
    ++rec.done;
    rec.ok = o.ok;
    rec.shed = o.shed;
    rec.shared = o.shared;
    rec.coverage = o.ok ? o.coverage : 0.0;
    rec.response_s = now.to_seconds() - a.at_s;
    rec.value = o.actual.value;
    rec.estimate_j = o.estimate.energy_j;
    rec.actual_j = o.actual.energy_j;
    if (o.parsed.cost.metric == pgrid::query::CostMetric::kTime) {
      rec.cost_time_s = o.parsed.cost.limit;
    }
    if (!checkable || !o.ok || o.coverage < 1.0 ||
        (a.kind != QueryKind::kAvg && a.kind != QueryKind::kMax)) {
      return;
    }
    // Executor-independent reference: the field itself at the positions of
    // the sensors that are up right now.
    double sum = 0.0;
    double max = -1e300;
    std::size_t n = 0;
    for (net::NodeId s : rt.sensors().sensors()) {
      if (!rt.network().alive(s)) continue;
      const double v =
          reference_[a.target].value(rt.network().node(s).pos, now);
      sum += v;
      max = std::max(max, v);
      ++n;
    }
    if (n == 0) return;
    // Sensor noise is N(0, sigma): the mean of n readings lies within
    // 6 sigma / sqrt(n) of the true mean, the hottest reading within
    // 6 sigma of the hottest true value.
    const double sigma = spec_.base.sensors.noise_std;
    rec.reference_checked = true;
    if (a.kind == QueryKind::kAvg) {
      rec.reference = sum / double(n) + options_.reference_bias;
      rec.tolerance = 6.0 * sigma / std::sqrt(double(n)) + 1e-6;
    } else {
      rec.reference = max + options_.reference_bias;
      rec.tolerance = 6.0 * sigma + 1e-6;
    }
  }

  /// Advances the deployment in 1 s run_until slices up to the horizon,
  /// then drains it; returns the host seconds taken.  Untraced runs slice
  /// too, so that both drive the lockstep world through the same barriers.
  double drive() {
    const auto start = Clock::now();
    begin("run", "sim");
    const auto slices = static_cast<std::size_t>(std::ceil(spec_.horizon_s));
    for (std::size_t s = 1; s <= slices + 1; ++s) {
      const std::uint64_t events0 = dep_->events();
      const std::uint64_t windows0 = dep_->windows();
      const bool drain = s == slices + 1;
      begin(drain ? "drain" : "slice", "sim");
      if (drain) {
        dep_->run();
      } else {
        dep_->run_until(sim::SimTime::seconds(double(s)));
      }
      const std::size_t pending = dep_->pending();
      pending_max_ = std::max(pending_max_, pending);
      end({{"events", double(dep_->events() - events0)},
           {"windows", double(dep_->windows() - windows0)},
           {"pending", double(pending)}});
    }
    const double drain_s = seconds_since(start);
    end({{"events", double(dep_->events())}});
    return drain_s;
  }

  void check() {
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& rec = records_[i];
      if (rec.done != 1) {
        fail("arrival " + std::to_string(i) + " completed " +
             std::to_string(rec.done) + " times");
      } else if (rec.reference_checked &&
                 !matches_reference(rec.value, rec.reference, rec.tolerance)) {
        fail("arrival " + std::to_string(i) + " (" + texts_[i] + ") answered " +
             std::to_string(rec.value) + ", reference " +
             std::to_string(rec.reference) + " +/- " +
             std::to_string(rec.tolerance));
      }
    }
    for (std::size_t i = 0; i < transfers_done_.size(); ++i) {
      if (transfers_done_[i] != 1) {
        fail("transfer " + std::to_string(i) + " completed " +
             std::to_string(transfers_done_[i]) + " times");
      }
    }
    for (std::size_t r = 0; r < dep_->regions(); ++r) {
      core::PervasiveGridRuntime& rt = dep_->region(r);
      const std::string where = " (region " + std::to_string(r) + ")";
      if (auto v = sim::check_ledger_conservation(rt.telemetry())) {
        fail(*v + where);
      }
      if (auto v = sim::check_no_open_spans(rt.telemetry())) fail(*v + where);
      if (auto v = sim::check_kernel_pending_exact(rt.simulator())) {
        fail(*v + where);
      }
      if (dep_->sharded() != nullptr && dep_->sharded()->chaos(r) != nullptr) {
        if (auto v = sim::check_chaos_quiescent(*dep_->sharded()->chaos(r))) {
          fail(*v + where);
        }
      }
    }
    if (dep_->sharded() != nullptr) {
      lockstep_ = dep_->sharded()->world().stats();
      out_.order_digest = dep_->sharded()->order_digest();
      if (lockstep_.lookahead_violations != 0) {
        fail(std::to_string(lockstep_.lookahead_violations) +
             " lookahead violations");
      }
    }
  }

  /// The modelled end-to-end metrics and the outcome digest.
  void measure() {
    out_.attempted = records_.size();
    std::vector<double> responses;
    std::vector<double> errors;
    double coverage_sum = 0.0;
    Fnv digest;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& rec = records_[i];
      digest.add(rec.done);
      digest.add(rec.ok);
      digest.add(rec.shed);
      digest.add(rec.coverage);
      digest.add(rec.response_s);
      digest.add(rec.value);
      digest.add(rec.actual_j);
      const bool answered = rec.ok && !rec.shed;
      const bool late =
          rec.cost_time_s > 0.0 && rec.response_s > rec.cost_time_s;
      if (!answered || late || rec.coverage < 0.8) ++out_.missed;
      coverage_sum += rec.coverage;
      if (answered) {
        ++answered_;
        answered_coverage_ += rec.coverage;
      }
      if (rec.shared) ++shared_;
      if (answered && arrivals_[i].one_shot()) {
        responses.push_back(rec.response_s);
        if (rec.actual_j > 0.0) {
          errors.push_back(std::abs(rec.estimate_j - rec.actual_j) /
                           rec.actual_j);
        }
      }
    }
    double energy_j = 0.0;
    double network_bytes = 0.0;
    for (std::size_t r = 0; r < dep_->regions(); ++r) {
      core::PervasiveGridRuntime& rt = dep_->region(r);
      energy_j += rt.network().battery_energy_consumed();
      const auto& totals = rt.telemetry().totals();
      network_bytes += double(totals[telemetry::Subsystem::kWireless].bytes +
                              totals[telemetry::Subsystem::kBackhaul].bytes);
      const auto& ns = rt.network().stats();
      digest.add(ns.transmissions);
      digest.add(ns.delivered);
      digest.add(ns.bytes_sent);
      digest.add(rt.telemetry().total().joules);
      digest.add(rt.simulator().now().us);
    }
    out_.outcome_digest = digest.value();
    const double attempted = double(std::max<std::size_t>(1, out_.attempted));
    out_.response_samples = responses.size();
    out_.response_p50_s = median(responses);
    if (auto tail = tail_percentile(responses)) {
      out_.response_tail_s = tail->value;
      out_.response_tail_pct = tail->percentile;
    } else {
      fail("only " + std::to_string(responses.size()) +
           " answered one-shot queries: too few for a tail percentile");
    }
    out_.miss_rate = double(out_.missed) / attempted;
    out_.coverage_mean = coverage_sum / attempted;
    out_.energy_mj_per_query = energy_j * 1e3 / attempted;
    out_.bytes_per_query = network_bytes / attempted;
    out_.estimate_error_p50 = median(errors);
  }

  /// Per-layer counters, summed over regions from the public stats.
  void count_layers() {
    net::NetworkStats ns;
    net::TopologyStats ts;
    net::RouteCache::Stats rc;
    net::FlowStats fs;
    net::ReliableStats rs;
    core::SharingStats ss;
    pgrid::sensornet::SharedTreeStats tree;
    core::FailoverStats fo;
    std::uint64_t agent_messages = 0;
    std::uint64_t ledger_traces = 0;
    telemetry::TraceCosts ledger;
    for (std::size_t r = 0; r < dep_->regions(); ++r) {
      core::PervasiveGridRuntime& rt = dep_->region(r);
      ns.transmissions += rt.network().stats().transmissions;
      ns.delivered += rt.network().stats().delivered;
      ns.bytes_sent += rt.network().stats().bytes_sent;
      ts.snapshot_builds += rt.network().topology_stats().snapshot_builds;
      ts.snapshot_patches += rt.network().topology_stats().snapshot_patches;
      rc.hits += rt.network().route_cache().stats().hits;
      rc.misses += rt.network().route_cache().stats().misses;
      if (auto* flow = rt.flow_model()) {
        const auto& f = flow->stats();
        fs.analytic_hops += f.analytic_hops;
        fs.tree_epochs += f.tree_epochs;
        fs.packet_fallbacks += f.packet_fallbacks;
        fs.plan_hits += f.plan_hits;
        fs.plan_misses += f.plan_misses;
      }
      if (auto* rel = rt.reliable_channel()) {
        const auto& s = rel->stats();
        rs.retransmissions += s.retransmissions;
        rs.reroutes += s.reroutes;
        rs.expired += s.expired;
        rs.delivered += s.delivered;
        rs.data_frames += s.data_frames;
      }
      if (auto* sharing = rt.sharing()) {
        ss.shed_overload += sharing->stats().shed_overload;
        ss.shed_budget += sharing->stats().shed_budget;
        tree.collections += sharing->registry().stats().collections;
        tree.fanouts += sharing->registry().stats().fanouts;
      }
      if (auto* failover = rt.failover()) {
        fo.checkpoints += failover->stats().checkpoints;
        fo.checkpoint_bytes += failover->stats().checkpoint_bytes;
        fo.epochs_lost_in_gap += failover->stats().epochs_lost_in_gap;
      }
      agent_messages += rt.agents().stats().sent;
      ledger_traces += rt.telemetry().trace_ids().size();
      for (std::size_t k = 0; k < telemetry::kSubsystemCount; ++k) {
        ledger.by_subsystem[k] += rt.telemetry().totals().by_subsystem[k];
      }
    }
    const double events = double(dep_->events());
    const double windows = double(lockstep_.windows);
    layer("sim.events", events, "count");
    layer("sim.pending_max", double(pending_max_), "count");
    layer("sim.shard.windows", windows, "count");
    layer("sim.shard.events_per_window", ratio(events, windows), "count");
    layer("sim.shard.lookahead_violations",
          double(lockstep_.lookahead_violations), "count");
    layer("net.transmissions", double(ns.transmissions), "count");
    layer("net.bytes_sent", double(ns.bytes_sent), "bytes");
    layer("net.delivery_ratio",
          ratio(double(ns.delivered), double(ns.transmissions)), "ratio");
    layer("net.route_cache_hit_ratio",
          ratio(double(rc.hits), double(rc.hits + rc.misses)), "ratio");
    layer("net.snapshot_builds", double(ts.snapshot_builds), "count");
    layer("net.snapshot_patches", double(ts.snapshot_patches), "count");
    layer("net.flow.analytic_hops", double(fs.analytic_hops), "count");
    layer("net.flow.tree_epochs", double(fs.tree_epochs), "count");
    layer("net.flow.packet_fallbacks", double(fs.packet_fallbacks), "count");
    layer("net.flow.plan_hit_ratio",
          ratio(double(fs.plan_hits), double(fs.plan_hits + fs.plan_misses)),
          "ratio");
    layer("net.reliable.retransmissions", double(rs.retransmissions), "count");
    layer("net.reliable.reroutes", double(rs.reroutes), "count");
    layer("net.reliable.expired", double(rs.expired), "count");
    layer("net.reliable.useful_ratio",
          ratio(double(rs.delivered), double(rs.data_frames)), "ratio");
    layer("sensornet.report_ratio",
          ratio(answered_coverage_, double(answered_)), "ratio");
    layer("agent.messages", double(agent_messages), "count");
    layer("core.threads", double(out_.threads_after_setup), "count");
    layer("core.sharing.shared_share",
          ratio(double(shared_), double(out_.attempted)), "ratio");
    layer("core.sharing.fanout_ratio",
          ratio(double(tree.fanouts), double(tree.collections)), "ratio");
    layer("core.sharing.shed", double(ss.shed_overload + ss.shed_budget),
          "count");
    layer("core.failover.checkpoints", double(fo.checkpoints), "count");
    layer("core.failover.checkpoint_bytes", double(fo.checkpoint_bytes),
          "bytes");
    layer("core.failover.queries_adopted",
          dep_->sharded()
              ? double(dep_->sharded()->failover_stats().queries_adopted)
              : 0.0,
          "count");
    layer("core.failover.epochs_lost_in_gap", double(fo.epochs_lost_in_gap),
          "count");
    layer("telemetry.ledger_traces", double(ledger_traces), "count");
    for (std::size_t k = 0; k < telemetry::kSubsystemCount; ++k) {
      std::string name =
          telemetry::to_string(static_cast<telemetry::Subsystem>(k));
      std::replace(name.begin(), name.end(), '-', '_');
      layer("telemetry." + name + "_j", ledger.by_subsystem[k].joules, "J");
    }
  }

  /// Host time of each layer's entry points, called directly on region 0
  /// once the run has drained (traced run only).
  void probe_layers(double drain_s) {
    begin("probes", "bench");
    core::PervasiveGridRuntime& rt = dep_->region(0);
    net::Network& network = rt.network();
    const net::NodeId base = rt.sensors().base_station();
    const auto& sensors = rt.sensors().sensors();
    const double events = double(dep_->events());

    layer("sim.ns_per_event", ratio(drain_s * 1e9, events), "ns");
    layer("sim.shard.us_per_window",
          ratio(drain_s * 1e6, double(lockstep_.windows)), "us");

    begin("net.cached_shortest_path", "net");
    const auto route_t0 = Clock::now();
    for (net::NodeId s : sensors) {
      (void)net::cached_shortest_path(network, s, base);
    }
    const double route_s = seconds_since(route_t0);
    end({{"calls", double(sensors.size())}});
    layer("net.route_us", ratio(route_s * 1e6, double(sensors.size())), "us");

    std::vector<double> snapshot_ms;
    for (int i = 0; i < 5; ++i) {
      network.bump_topology_version();
      begin("net.topology_snapshot", "net");
      (void)network.topology_snapshot();
      snapshot_ms.push_back(end() * 1e3);
    }
    layer("net.snapshot_ms", median(snapshot_ms), "ms");

    const auto& snapshot = network.topology_snapshot();
    begin("net.link_between", "net");
    const auto link_t0 = Clock::now();
    std::size_t links = 0;
    for (net::NodeId a = 0; a < snapshot.size(); ++a) {
      for (net::NodeId b : snapshot.row(a)) {
        links += network.link_between(a, b).has_value() ? 1 : 0;
      }
    }
    const double link_s = seconds_since(link_t0);
    end({{"edges", double(snapshot.edge_count())}});
    layer("net.link_ns", ratio(link_s * 1e9, double(snapshot.edge_count())),
          "ns");
    if (links != snapshot.edge_count()) {
      fail("link_between found no link on " +
           std::to_string(snapshot.edge_count() - links) + " CSR edges");
    }

    begin("sensornet.collect_tree_aggregate", "sensornet");
    bool round_done = false;
    rt.sensors().collect_tree_aggregate(
        rt.field(),
        [&round_done](pgrid::sensornet::CollectionResult) {
          round_done = true;
        });
    rt.simulator().run();
    layer("sensornet.tree_round_ms", end() * 1e3, "ms");
    if (!round_done) fail("probe tree round never completed");

    std::vector<pgrid::grid::Reading> readings;
    for (net::NodeId s : sensors) {
      const net::Vec3 pos = network.node(s).pos;
      readings.push_back({pos, rt.field().value(pos, rt.simulator().now())});
    }
    auto ctx = rt.execution_context();
    begin("grid.solve_temperature_distribution", "grid");
    const auto solved = pgrid::grid::solve_temperature_distribution(
        readings, spec_.base.sensors.width_m, spec_.base.sensors.height_m, 0.0,
        ctx.pde_nx, ctx.pde_ny, 1, ctx.ambient, ctx.solver, ctx.pool);
    layer("grid.solve_ms", end() * 1e3, "ms");
    if (!solved.stats.converged) fail("probe PDE solve did not converge");

    std::vector<pgrid::query::Query> parsed;
    std::vector<pgrid::query::Classification> classes;
    begin("query.parse_classify", "query");
    const double parse_s = time_per_call([&] {
      parsed.clear();
      classes.clear();
      for (const std::string& text : texts_) {
        auto q = pgrid::query::parse_query(text);
        if (!q) continue;
        classes.push_back(rt.classifier().classify(q.value()));
        parsed.push_back(q.value());
      }
    });
    end();
    layer("query.parse_us", ratio(parse_s * 1e6, double(texts_.size())), "us");
    if (parsed.size() != texts_.size()) {
      fail("a workload query failed to parse");
    }

    std::vector<pgrid::partition::NetworkProfile> profiles;
    for (const auto& cls : classes) {
      profiles.push_back(pgrid::partition::profile_from(ctx, cls));
    }
    begin("partition.decide", "partition");
    int models = 0;
    const double decide_s = time_per_call([&] {
      for (std::size_t i = 0; i < classes.size(); ++i) {
        models += static_cast<int>(rt.decision_maker().decide(
            classes[i].inner, parsed[i].cost.metric, profiles[i]));
      }
    });
    end({{"model_sum", double(models)}});
    layer("partition.decide_us", ratio(decide_s * 1e6, double(classes.size())),
          "us");

    double checkpoint_s = 0.0;
    std::size_t checkpoint_n = 0;
    for (std::size_t r = 0; r < dep_->regions(); ++r) {
      auto* failover = dep_->region(r).failover();
      if (failover == nullptr) continue;
      const core::Checkpoint checkpoint = failover->build_checkpoint();
      begin("core.checkpoint_roundtrip", "core");
      checkpoint_s += time_per_call([&] {
        auto back =
            core::parse_checkpoint(core::serialize_checkpoint(checkpoint));
        if (!back) fail("checkpoint failed to round-trip: " + back.error());
      });
      end();
      ++checkpoint_n;
    }
    layer("core.failover.checkpoint_us",
          ratio(checkpoint_s * 1e6, double(checkpoint_n)), "us");

    begin("core.region_build", "core");
    auto built = std::make_unique<core::PervasiveGridRuntime>(rt.config());
    layer("core.region_build_ms", end() * 1e3, "ms");
    built.reset();
    end();
  }

  const WorkloadSpec& spec_;
  const RunOptions& options_;
  Tracer* tracer_;
  RunResult out_;

  std::unique_ptr<Deployment> dep_;
  std::unique_ptr<net::WaypointMobility> mobility_;
  std::vector<pgrid::sensornet::BuildingTemperatureField> reference_;
  std::vector<Arrival> arrivals_;  ///< spec arrivals with sensors resolved
  std::vector<std::string> texts_;
  std::vector<Record> records_;
  std::vector<int> transfers_done_;

  std::size_t pending_max_ = 0;
  sim::LockstepStats lockstep_;
  std::size_t answered_ = 0;
  double answered_coverage_ = 0.0;
  std::size_t shared_ = 0;
};

}  // namespace

bool matches_reference(double answer, double reference, double tolerance) {
  return std::isfinite(answer) && std::abs(answer - reference) <= tolerance;
}

RunResult run_workload(const WorkloadSpec& spec, const RunOptions& options) {
  return Run(spec, options).execute();
}

}  // namespace perfbench
