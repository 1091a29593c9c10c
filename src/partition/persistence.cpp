#include "partition/persistence.hpp"

#include <sstream>

namespace pgrid::partition {

namespace {
constexpr const char* kHeader = "pgrid-experience-v1";

const query::QueryClass kClasses[] = {query::QueryClass::kSimple,
                                      query::QueryClass::kAggregate,
                                      query::QueryClass::kComplex};
}  // namespace

std::string save_experience(const DecisionMaker& maker) {
  std::ostringstream out;
  out.precision(17);
  out << kHeader << '\n';
  for (const auto& sample : maker.samples()) {
    out << "sample";
    for (int feature : sample.features) out << ' ' << feature;
    out << " -> " << sample.label << '\n';
  }
  for (auto inner : kClasses) {
    for (auto model : all_models()) {
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

common::Result<std::size_t> load_experience(const std::string& text,
                                            DecisionMaker& maker) {
  using R = common::Result<std::size_t>;
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    return R::failure("bad experience header");
  }
  std::vector<TreeSample> samples;
  struct CalRow {
    int inner;
    int model;
    double e_mean;
    std::size_t e_count;
    double r_mean;
    std::size_t r_count;
  };
  std::vector<CalRow> calibrations;
  const std::vector<int> cardinality = Features::cardinalities();

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "sample") {
      TreeSample sample;
      std::string token;
      std::vector<int> numbers;
      bool saw_arrow = false;
      while (fields >> token) {
        if (token == "->") {
          saw_arrow = true;
          continue;
        }
        try {
          numbers.push_back(std::stoi(token));
        } catch (...) {
          return R::failure("bad sample token: " + token);
        }
        if (saw_arrow) break;
      }
      if (!saw_arrow || numbers.empty()) {
        return R::failure("malformed sample line");
      }
      sample.label = numbers.back();
      numbers.pop_back();
      if (numbers.size() != Features::kCount) {
        return R::failure("sample feature count mismatch");
      }
      // The tree indexes per-label and per-value tables with these, so
      // anything outside the trained domain is rejected, not clamped.
      if (sample.label < 0 ||
          static_cast<std::size_t>(sample.label) >= all_models().size()) {
        return R::failure("sample label out of range");
      }
      for (std::size_t f = 0; f < Features::kCount; ++f) {
        if (numbers[f] < 0 || numbers[f] >= cardinality[f]) {
          return R::failure("sample feature out of range");
        }
      }
      sample.features = std::move(numbers);
      samples.push_back(std::move(sample));
    } else if (kind == "cal") {
      CalRow row;
      if (!(fields >> row.inner >> row.model >> row.e_mean >> row.e_count >>
            row.r_mean >> row.r_count)) {
        return R::failure("malformed calibration line");
      }
      if (row.model < 0 || row.model > 5 || row.inner < 0 || row.inner > 3) {
        return R::failure("calibration indices out of range");
      }
      calibrations.push_back(row);
    } else {
      return R::failure("unknown record kind: " + kind);
    }
  }

  maker.set_samples(std::move(samples));
  for (const auto& row : calibrations) {
    maker.restore_calibration(static_cast<query::QueryClass>(row.inner),
                              static_cast<SolutionModel>(row.model),
                              row.e_mean, row.e_count, row.r_mean,
                              row.r_count);
  }
  if (!maker.samples().empty()) maker.retrain();
  return maker.samples().size();
}

}  // namespace pgrid::partition
