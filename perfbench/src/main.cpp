// perfbench: the repository's benchmark driver. One workload per run:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics with tracing off; with
// --trace 1 it makes the traced run that yields the per-layer metrics. It
// prints detail lines ("# ..."), one "metric" line per metric, and, last,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// status is 1 when any delivered output was not bit-exact against
// runtime::run_reference, 2 on a usage error or an escaped exception.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "cnn/kernel_isa.hpp"

namespace {

using namespace pb;

const char* env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

/// JSON number with all its digits (non-finite values cannot be JSON).
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_report(const RunConfig& config, const Report& report) {
  for (const auto& line : report.notes) std::printf("# %s\n", line.c_str());
  // Provenance: what ran, where, from which sources.
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"kernel_isa\": \"%s\", "
      "\"fleet_engine\": \"%s\", \"build_type\": \"%s\", \"commit\": \"%s\", "
      "\"source_digest\": \"%s\"}\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      num(config.seconds).c_str(), config.trace ? 1 : 0,
      std::thread::hardware_concurrency(),
      de::cnn::to_string(de::cnn::default_kernel_isa()),
      report.engine.c_str(), PERFBENCH_BUILD_TYPE,
      env_or("PERFBENCH_COMMIT", "unknown"),
      env_or("PERFBENCH_SOURCE_DIGEST", "unknown"));
  for (const auto& m : report.metrics) {
    std::printf("metric %-28s %s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload "
               "stream-halo|stream-compute|door-cameras|churn-hetero "
               "--seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::atof(value);
    } else if (key == "--trace") {
      config.trace = std::atoi(value) != 0;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || config.seconds <= 0) return usage(argv[0]);

  Report (*run)(const RunConfig&) = nullptr;
  if (config.workload == "stream-halo") run = run_stream_halo;
  if (config.workload == "stream-compute") run = run_stream_compute;
  if (config.workload == "door-cameras") run = run_door_cameras;
  if (config.workload == "churn-hetero") run = run_churn_hetero;
  if (run == nullptr) return usage(argv[0]);

  try {
    const Report report = run(config);
    print_report(config, report);
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
