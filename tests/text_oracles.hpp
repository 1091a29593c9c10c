// Test-only reference writers for the text images: the original iostream
// implementations of serialize_checkpoint and save_experience, kept as
// byte-identity oracles for the to_chars writers in src/.  The images are
// modelled bytes (the ledger charges them, adoption ships them), so any
// formatting drift between the two writers is a behaviour change.
#pragma once

#include <iomanip>
#include <sstream>
#include <string>

#include "core/failover.hpp"
#include "partition/persistence.hpp"
#include "query/canonical.hpp"

namespace text_oracles {

inline void put_double(std::ostream& out, double v) {
  out << std::setprecision(17) << v;
}

inline std::string serialize_checkpoint(
    const pgrid::core::Checkpoint& checkpoint) {
  std::ostringstream out;
  out << "pgrid-checkpoint-v1" << '\n';
  out << "meta " << checkpoint.seq << ' ';
  put_double(out, checkpoint.taken_at_s);
  out << ' ' << checkpoint.queries.size() << '\n';
  for (const pgrid::core::QueryCheckpoint& q : checkpoint.queries) {
    out << "query " << q.id << ' ' << q.total_epochs << ' ';
    put_double(out, q.epoch_s);
    out << ' ';
    put_double(out, q.deadline_s);
    out << ' ';
    put_double(out, q.started_s);
    out << ' ' << (q.queued ? 1 : 0) << ' ' << q.epochs.size() << '\n';
    out << "model " << q.model.size() << '\n' << q.model << '\n';
    out << "text " << q.text.size() << '\n' << q.text << '\n';
    for (const pgrid::core::EpochRecord& e : q.epochs) {
      out << "epoch " << (e.ok ? 1 : 0) << ' ' << (e.degraded ? 1 : 0) << ' '
          << (e.lost ? 1 : 0) << ' ' << e.model << ' ';
      put_double(out, e.value);
      out << ' ';
      put_double(out, e.coverage);
      out << ' ';
      put_double(out, e.accuracy);
      out << ' ';
      put_double(out, e.energy_j);
      out << ' ';
      put_double(out, e.response_s);
      out << ' ' << e.data_bytes << ' ';
      put_double(out, e.compute_ops);
      out << '\n';
    }
  }
  out << "experience " << checkpoint.experience.size() << '\n'
      << checkpoint.experience << '\n';
  std::string payload = out.str();
  std::ostringstream tail;
  tail << "end " << std::hex << std::setw(16) << std::setfill('0')
       << pgrid::query::fnv1a(payload) << '\n';
  payload += tail.str();
  return payload;
}

inline std::string save_experience(
    const pgrid::partition::DecisionMaker& maker) {
  using pgrid::query::QueryClass;
  std::ostringstream out;
  out.precision(17);
  out << "pgrid-experience-v1" << '\n';
  for (const auto& sample : maker.samples()) {
    out << "sample";
    for (int feature : sample.features) out << ' ' << feature;
    out << " -> " << sample.label << '\n';
  }
  for (auto inner :
       {QueryClass::kSimple, QueryClass::kAggregate, QueryClass::kComplex}) {
    for (auto model : pgrid::partition::all_models()) {
      const std::size_t energy_n = maker.observations(inner, model);
      const std::size_t response_n = maker.response_observations(inner, model);
      if (energy_n == 0 && response_n == 0) continue;
      out << "cal " << static_cast<int>(inner) << ' '
          << static_cast<int>(model) << ' '
          << maker.energy_calibration(inner, model) << ' ' << energy_n << ' '
          << maker.response_calibration(inner, model) << ' ' << response_n
          << '\n';
    }
  }
  return out.str();
}

}  // namespace text_oracles
