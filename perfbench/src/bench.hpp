// Shared pieces of the perfbench driver: run configuration, the printed
// report, statistics, seeded input pools with their single-device
// references, the planning-side set-up every workload performs, the
// per-(volume, part) kernel ledger, and the helpers that turn delivery
// timelines and attribution reports into metrics.
//
// Everything here reaches the system through public entry points only
// (runtime::serve_stream, serve::StreamServer, the planners, the profiler,
// the simulator, obs attribution), so internal refactors cannot break it.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cnn/exec_engine.hpp"
#include "cnn/model.hpp"
#include "common/rng.hpp"
#include "device/latency_table.hpp"
#include "net/network.hpp"
#include "obs/attribution.hpp"
#include "obs/trace.hpp"
#include "sim/exec_sim.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

/// Seconds from `a` to `b`.
double secs(Clock::time_point a, Clock::time_point b);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// One workload run's result: the metrics of the requested kind (end-to-end
/// with trace off, per-layer with trace on), correctness counts, and
/// free-form detail lines printed before the final JSON line.
struct Report {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  bool correct = true;  ///< every delivered output was bit-exact
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  ///< attempted images not delivered bit-exact
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::string engine;  ///< conv engine the provider fleet ran

  void metric(const std::string& name, double value, const char* unit);
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
/// Peak resident set of this process so far, MiB.
double peak_rss_mb();
/// Returns freed heap to the system (malloc_trim). Called between phases so
/// a phase's peak is its own live memory, not what earlier phases' freed
/// chunks left behind in whichever malloc arena a new thread picked.
void release_free_heap();

/// The model's weights. They are part of the model, not of a workload's
/// inputs, so they do not change with --seed.
std::vector<de::cnn::ConvWeights> model_weights(const de::cnn::CnnModel& model);

/// Seeded inputs plus their runtime::run_reference outputs (computed on
/// several threads; not part of any timed phase).
struct InputPool {
  std::vector<de::cnn::Tensor> inputs;
  std::vector<de::cnn::Tensor> refs;
};
InputPool make_pool(const de::cnn::CnnModel& model,
                    const std::vector<de::cnn::ConvWeights>& weights, int n,
                    de::Rng& rng);
/// True when `out` is bitwise the reference output.
bool bit_exact(const de::cnn::Tensor& out, const de::cnn::Tensor& ref);

/// Planning-side set-up every workload performs before bring-up: the
/// host-measured profile (device::profile_model_measured with the engine
/// the fleet runs), the serving strategy, and the simulator's predictions
/// for that strategy on that profile.
struct PlanSetup {
  std::shared_ptr<const de::device::LatencyTable> profile;
  de::sim::ClusterLatency latency;  ///< `profile` once per device
  de::sim::RawStrategy strategy;
  double profile_ms = 0;
  double plan_ms = 0;              ///< the timed plan() (or cut builder)
  double plan_predicted_ms = 0;    ///< simulated one-image latency
  double predicted_ips = 0;        ///< simulated streaming IPS
  double total_s = 0;              ///< whole planning-side set-up
};

/// "layers [a,b) cuts c0/c1/...; ..." — the strategy, for detail lines.
std::string strategy_text(const de::sim::RawStrategy& strategy);

/// Whether to run another set-up after `done` of them took `spent_s`:
/// at least 5, and more (up to 25) while they have taken less than 2 s,
/// because cheap set-ups are short and noisy and their median needs more
/// samples.
inline bool more_setups(std::size_t done, double spent_s) {
  return done < 5 || (done < 25 && spent_s < 2.0);
}

/// Profiles `model` with `exec` and fills latency for `n_devices`.
void profile_into(PlanSetup& setup, const de::cnn::CnnModel& model,
                  int n_devices, const de::cnn::ExecContext& exec);
/// Fills the simulator's predictions for setup.strategy.
void predict_into(PlanSetup& setup, const de::cnn::CnnModel& model,
                  const de::net::Network& network);

/// Kernel ledger: every (volume, part) of `strategy` executed alone with
/// `exec` on one image, next to the profile's prediction for the same rows.
struct PartTiming {
  int volume = 0;
  int part = 0;
  int rows = 0;
  double measured_ms = 0;   ///< median of the repeats
  double predicted_ms = 0;  ///< sum of the profile's per-layer latencies
  double gflop = 0;         ///< split-part work, halo recompute included
};
std::vector<PartTiming> time_parts(
    const de::cnn::CnnModel& model, const de::sim::RawStrategy& strategy,
    const std::vector<de::cnn::ConvWeights>& weights,
    const de::cnn::Tensor& input, const de::cnn::ExecContext& exec,
    const de::device::LatencyModel& profile, int repeats);
/// Adds cnn.volume_ms / cnn.volume_pred_ms / cnn.gflops and one note line
/// per part.
void ledger_metrics(Report& report, const std::vector<PartTiming>& parts);

/// Closed-loop per-image latency from a delivery timeline: with K images
/// in flight, image k is scattered as image k-K is gathered, so its
/// latency is delivered_at[k] - delivered_at[k-K] (delivered_at[k] for the
/// first K). Milliseconds.
std::vector<double> closed_loop_latency_ms(
    const std::vector<double>& delivered_at_s, int inflight);

/// Per-image medians of one or more attribution reports.
struct AttributionSummary {
  double compute_us = 0;
  double halo_wait_us = 0;
  double gather_wait_us = 0;
  double scatter_us = 0;
  double unattributed_us = 0;
  double e2e_us = 0;
  double straggler_max = 0;
  std::int64_t images = 0;
};
AttributionSummary summarize(
    const std::vector<de::obs::AttributionReport>& reports);

/// Event loss of one traced capture.
struct TraceLoss {
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  void add(const de::obs::TraceDump& dump);
  double dropped_frac() const;
};

/// The per-layer metrics every workload reports in its traced run, in the
/// order BENCHMARK.json lists them. Workload code fills the struct and
/// layer_metrics() prints it.
struct LayerFigures {
  double core_plan_ms = 0;
  double core_plan_predicted_ms = 0;
  double sim_predicted_ips = 0;
  double measured_ips = 0;  ///< for sim.prediction_ratio
  double messages_per_image = 0;
  double wire_bytes_per_image = 0;
  double copies_per_halo_byte = 0;
  double frame_allocs_per_image = 0;
  double retransmits = 0;
  AttributionSummary attribution;
  double credit_stalls = 0;
  double gen_lateness_ms = 0;
  double server_latency_ms = 0;
  double recovery_ms = 0;
  double adoption_ms = 0;
  double images_cancelled = 0;
  double deaths = 0;
  double joins = 0;
  double provider_restarts = 0;
  double trace_overhead = 0;
  double events_dropped_frac = 0;
};
void layer_metrics(Report& report, const LayerFigures& f);

/// One load phase of a run ("low", "mid", "high"): the per-image latencies
/// (ms) of each lap (door-cameras: of each pass), the rate it delivered,
/// and, for open-loop phases, the rate offered and the share of offered
/// frames delivered within the SLO limit of the phase's end.
struct Phase {
  std::vector<std::vector<double>> latency_ms;
  double ips = 0;
  double offered_ips = 0;  ///< 0 for closed loops (no offered rate)
  double on_time_frac = 0;
};

/// Rate of a closed loop from its laps' rates: the upper quartile. Other
/// tenants of the host only ever slow a lap down, so the upper quartile
/// follows the system and the median follows the host.
inline double lap_rate(std::vector<double> lap_ips) {
  return percentile(std::move(lap_ips), 0.75);
}

/// Tail-latency limit of the door-cameras SLO: p90 of a rate's frames.
inline constexpr double kSloP90Ms = 250.0;

/// Adds the end-to-end metrics every workload reports, in BENCHMARK.json
/// order. `phases` are low/mid/high (open loop) or the first/middle/last
/// third of a closed-loop run; ips.after_death / ips.after_rejoin are the
/// middle and last phase's delivered rate.
void e2e_metrics(Report& report, double ips, double setup_s,
                 const Phase (&phases)[3]);

/// Arms the trace recorder (default ring size) for its lifetime.
class TraceSession {
 public:
  TraceSession();
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;
};

/// Workload entry points.
Report run_stream_halo(const RunConfig& config);
Report run_stream_compute(const RunConfig& config);
Report run_churn_hetero(const RunConfig& config);
Report run_door_cameras(const RunConfig& config);

}  // namespace pb
