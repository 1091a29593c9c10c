#include "trace.hpp"

#include <cstdio>

namespace perfbench {

std::string Tracer::chrome_json() const {
  std::string json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  bool first = true;
  for (const Span& span : spans_) {
    if (!first) json += ',';
    first = false;
    json += "{\"name\":\"" + span.name + "\",\"cat\":\"" + span.layer +
            "\",\"ph\":\"X\",\"pid\":1,\"tid\":1";
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                  double(span.start_ns) * 1e-3, double(span.dur_ns) * 1e-3);
    json += buf;
    std::snprintf(buf, sizeof buf, ",\"args\":{\"id\":%d,\"parent\":%d",
                  span.id, span.parent);
    json += buf;
    for (const auto& [key, value] : span.args) {
      std::snprintf(buf, sizeof buf, ",\"%s\":%.17g", key.c_str(), value);
      json += buf;
    }
    json += "}}";
  }
  json += "]}\n";
  return json;
}

}  // namespace perfbench
