#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "cnn/layer_volume.hpp"
#include "cnn/vsl.hpp"
#include "device/profiler.hpp"
#include "runtime/cluster.hpp"
#include "sim/stream_sim.hpp"

namespace pb {

using namespace de;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void Report::metric(const std::string& name, double value, const char* unit) {
  metrics.push_back({name, value, unit});
}

void Report::note(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  notes.emplace_back(buf);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void release_free_heap() { malloc_trim(0); }

std::vector<cnn::ConvWeights> model_weights(const cnn::CnnModel& model) {
  Rng rng(0x5eedULL);
  return runtime::random_weights(model, rng);
}

InputPool make_pool(const cnn::CnnModel& model,
                    const std::vector<cnn::ConvWeights>& weights, int n,
                    Rng& rng) {
  InputPool pool;
  for (int k = 0; k < n; ++k) {
    cnn::Tensor t(model.input_h(), model.input_w(), model.input_c());
    for (auto& v : t.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    pool.inputs.push_back(std::move(t));
  }
  pool.refs.resize(pool.inputs.size());
  const int threads = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, std::max(n, 1));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int k = t; k < n; k += threads) {
        pool.refs[static_cast<std::size_t>(k)] = runtime::run_reference(
            model, weights, pool.inputs[static_cast<std::size_t>(k)]);
      }
    });
  }
  for (auto& w : workers) w.join();
  return pool;
}

bool bit_exact(const cnn::Tensor& out, const cnn::Tensor& ref) {
  return out.h == ref.h && out.w == ref.w && out.c == ref.c &&
         out.data == ref.data;
}

std::string strategy_text(const sim::RawStrategy& strategy) {
  std::string out;
  for (std::size_t v = 0; v < strategy.volumes.size(); ++v) {
    if (v > 0) out += "; ";
    out += "layers [" + std::to_string(strategy.volumes[v].first) + "," +
           std::to_string(strategy.volumes[v].last) + ") cuts ";
    for (std::size_t i = 0; i < strategy.cuts[v].size(); ++i) {
      if (i > 0) out += "/";
      out += std::to_string(strategy.cuts[v][i]);
    }
  }
  return out;
}

void profile_into(PlanSetup& setup, const cnn::CnnModel& model,
                  int n_devices, const cnn::ExecContext& exec) {
  const auto t0 = Clock::now();
  device::MeasuredProfileOptions options;
  options.exec = exec;
  setup.profile = std::make_shared<const device::LatencyTable>(
      device::profile_model_measured(model, options));
  setup.profile_ms = secs(t0, Clock::now()) * 1e3;
  setup.latency.assign(static_cast<std::size_t>(n_devices), setup.profile);
}

void predict_into(PlanSetup& setup, const cnn::CnnModel& model,
                  const net::Network& network) {
  setup.plan_predicted_ms =
      sim::execute_strategy(model, setup.strategy, setup.latency, network)
          .total_ms;
  sim::StreamOptions options;
  options.n_images = 100;
  setup.predicted_ips =
      sim::stream_images(model, setup.strategy, setup.latency, network,
                         options)
          .ips;
}

std::vector<PartTiming> time_parts(const cnn::CnnModel& model,
                                   const sim::RawStrategy& strategy,
                                   const std::vector<cnn::ConvWeights>& weights,
                                   const cnn::Tensor& input,
                                   const cnn::ExecContext& exec,
                                   const device::LatencyModel& profile,
                                   int repeats) {
  // Providers keep packed weights across images; so does the ledger.
  cnn::ExecCache cache;
  cnn::ExecContext ctx = exec;
  if (ctx.engine == cnn::ExecEngine::kFast) ctx.cache = &cache;

  std::vector<PartTiming> parts;
  cnn::Tensor in = input;
  for (std::size_t v = 0; v < strategy.volumes.size(); ++v) {
    const auto& volume = strategy.volumes[v];
    const auto layers = cnn::volume_layers(model, volume);
    const auto w = std::span<const cnn::ConvWeights>(weights).subspan(
        static_cast<std::size_t>(volume.first),
        static_cast<std::size_t>(volume.size()));
    const auto& cuts = strategy.cuts[v];
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const cnn::RowInterval rows{cuts[i], cuts[i + 1]};
      if (rows.empty()) continue;
      PartTiming part;
      part.volume = static_cast<int>(v);
      part.part = static_cast<int>(i);
      part.rows = rows.size();
      part.gflop =
          static_cast<double>(cnn::split_part_ops(layers, rows)) * 1e-9;
      const auto per_layer = cnn::per_layer_output_rows(layers, rows);
      for (std::size_t l = 0; l < layers.size(); ++l) {
        part.predicted_ms += profile.layer_ms(layers[l], per_layer[l].size());
      }
      (void)cnn::volume_forward_rows(layers, in, 0, rows, w, ctx);  // warm
      std::vector<double> ms;
      for (int r = 0; r < repeats; ++r) {
        const auto t0 = Clock::now();
        (void)cnn::volume_forward_rows(layers, in, 0, rows, w, ctx);
        ms.push_back(secs(t0, Clock::now()) * 1e3);
      }
      part.measured_ms = median(std::move(ms));
      parts.push_back(part);
    }
    in = cnn::volume_forward(layers, in, w, ctx);
  }
  return parts;
}

void ledger_metrics(Report& report, const std::vector<PartTiming>& parts) {
  double measured = 0;
  double predicted = 0;
  double gflop = 0;
  for (const auto& p : parts) {
    measured += p.measured_ms;
    predicted += p.predicted_ms;
    gflop += p.gflop;
    report.note("ledger volume %d part %d rows %d: measured %.4f ms, "
                "profile predicts %.4f ms, %.5f GFLOP",
                p.volume, p.part, p.rows, p.measured_ms, p.predicted_ms,
                p.gflop);
  }
  report.metric("cnn.volume_ms", measured, "ms");
  report.metric("cnn.volume_pred_ms", predicted, "ms");
  report.metric("cnn.gflops", measured > 0 ? gflop / (measured * 1e-3) : 0.0,
                "GFLOP/s");
}

std::vector<double> closed_loop_latency_ms(
    const std::vector<double>& delivered_at_s, int inflight) {
  std::vector<double> out;
  const auto k_back = static_cast<std::size_t>(std::max(inflight, 1));
  for (std::size_t k = 0; k < delivered_at_s.size(); ++k) {
    const double scattered = k >= k_back ? delivered_at_s[k - k_back] : 0.0;
    out.push_back((delivered_at_s[k] - scattered) * 1e3);
  }
  return out;
}

AttributionSummary summarize(
    const std::vector<obs::AttributionReport>& reports) {
  std::vector<double> compute, halo, gather, scatter, rest, e2e, straggler;
  AttributionSummary s;
  for (const auto& report : reports) {
    for (const auto& img : report.images) {
      compute.push_back(static_cast<double>(img.compute_us));
      halo.push_back(static_cast<double>(img.halo_wait_us));
      gather.push_back(static_cast<double>(img.gather_wait_us));
      scatter.push_back(static_cast<double>(img.scatter_us));
      rest.push_back(static_cast<double>(img.unattributed_us));
      e2e.push_back(static_cast<double>(img.e2e_us));
    }
    double worst = 0;
    for (const auto& dev : report.devices) worst = std::max(worst, dev.score);
    if (!report.devices.empty()) straggler.push_back(worst);
    s.images += report.images_attributed;
  }
  s.compute_us = median(compute);
  s.halo_wait_us = median(halo);
  s.gather_wait_us = median(gather);
  s.scatter_us = median(scatter);
  s.unattributed_us = median(rest);
  s.e2e_us = median(e2e);
  s.straggler_max = median(straggler);
  return s;
}

void TraceLoss::add(const obs::TraceDump& dump) {
  events += dump.total_events();
  dropped += dump.total_dropped();
}

double TraceLoss::dropped_frac() const {
  const double all = static_cast<double>(events + dropped);
  return all > 0 ? static_cast<double>(dropped) / all : 0.0;
}

void layer_metrics(Report& report, const LayerFigures& f) {
  report.metric("core.plan_ms", f.core_plan_ms, "ms");
  report.metric("core.plan_predicted_ms", f.core_plan_predicted_ms, "ms");
  report.metric("sim.predicted_ips", f.sim_predicted_ips, "1/s");
  report.metric("sim.prediction_ratio",
                f.sim_predicted_ips > 0 ? f.measured_ips / f.sim_predicted_ips
                                        : 0.0,
                "ratio");
  report.metric("rpc.messages_per_image", f.messages_per_image, "count");
  report.metric("rpc.wire_bytes_per_image", f.wire_bytes_per_image, "B");
  report.metric("rpc.copies_per_halo_byte", f.copies_per_halo_byte, "ratio");
  report.metric("rpc.frame_allocs_per_image", f.frame_allocs_per_image,
                "count");
  report.metric("rpc.retransmits", f.retransmits, "count");
  const auto& a = f.attribution;
  report.metric("runtime.compute_us", a.compute_us, "us");
  report.metric("runtime.halo_wait_us", a.halo_wait_us, "us");
  report.metric("runtime.gather_wait_us", a.gather_wait_us, "us");
  report.metric("runtime.scatter_us", a.scatter_us, "us");
  report.metric("runtime.unattributed_us", a.unattributed_us, "us");
  report.metric("runtime.straggler_max", a.straggler_max, "ratio");
  report.metric("serve.credit_stalls", f.credit_stalls, "count");
  report.metric("serve.gen_lateness_ms", f.gen_lateness_ms, "ms");
  report.metric("serve.server_latency_ms", f.server_latency_ms, "ms");
  report.metric("ctrl.recovery_ms", f.recovery_ms, "ms");
  report.metric("ctrl.adoption_ms", f.adoption_ms, "ms");
  report.metric("ctrl.images_cancelled", f.images_cancelled, "count");
  report.metric("ctrl.deaths", f.deaths, "count");
  report.metric("ctrl.joins", f.joins, "count");
  report.metric("ctrl.provider_restarts", f.provider_restarts, "count");
  report.metric("obs.trace_overhead", f.trace_overhead, "ratio");
  report.metric("obs.events_dropped_frac", f.events_dropped_frac, "ratio");
  report.note("attribution: %lld images, per-image medians compute %.0f us, "
              "halo_wait %.0f us, gather_wait %.0f us, scatter %.0f us, "
              "unattributed %.0f us, e2e %.0f us",
              static_cast<long long>(a.images), a.compute_us, a.halo_wait_us,
              a.gather_wait_us, a.scatter_us, a.unattributed_us, a.e2e_us);
}

void e2e_metrics(Report& report, double ips, double setup_s,
                 const Phase (&phases)[3]) {
  static const char* const kNames[3] = {"low", "mid", "high"};
  report.metric("ips", ips, "1/s");
  report.metric("setup_s", setup_s, "s");
  const double attempted = static_cast<double>(report.attempted);
  report.metric("delivered_frac",
                attempted > 0 ? 1.0 - static_cast<double>(report.failed) /
                                          attempted
                              : 0.0,
                "fraction");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  double slo_rate = 0;
  for (int p = 0; p < 3; ++p) {
    const auto& ph = phases[p];
    // A phase's percentile is the median over laps of each lap's
    // percentile, for lap_rate's reason: a lap that another tenant of the
    // host slowed down shows that stall in its tail. A slowdown of the
    // system slows every lap and still shows.
    std::vector<double> pooled;
    std::size_t fewest = ph.latency_ms.empty() ? 0 : SIZE_MAX;
    const auto over_laps = [&](double q) {
      std::vector<double> v;
      for (const auto& lap : ph.latency_ms) {
        if (!lap.empty()) v.push_back(percentile(lap, q));
      }
      return median(std::move(v));
    };
    for (const auto& lap : ph.latency_ms) {
      pooled.insert(pooled.end(), lap.begin(), lap.end());
      fewest = std::min(fewest, lap.size());
    }
    const double p50 = over_laps(0.5);
    const double p90 = over_laps(0.9);
    report.metric(std::string("p50_ms.") + kNames[p], p50, "ms");
    report.metric(std::string("p90_ms.") + kNames[p], p90, "ms");
    // An open-loop rate meets the SLO when its p90 is within the limit
    // and it kept up with what was offered: at least 90% of the phase's
    // frames were delivered by the limit after it stopped offering them,
    // however long the phase was. A closed loop has neither an offered
    // rate nor a backlog: its sustained rate is what it delivered.
    const bool meets = ph.offered_ips <= 0 ||
                       (p90 <= kSloP90Ms && ph.on_time_frac >= 0.9);
    if (meets) slo_rate = std::max(slo_rate, ph.ips);
    report.note("phase %s: %zu laps of at least %zu latency samples, %.2f/s "
                "delivered (offered %.2f/s, %.3f on time), p50 %.2f ms, p90 "
                "%.2f ms; pooled over laps p50 %.2f ms, p90 %.2f ms, p99 "
                "%.2f ms%s",
                kNames[p], ph.latency_ms.size(), fewest, ph.ips,
                ph.offered_ips, ph.on_time_frac, p50, p90,
                percentile(pooled, 0.5), percentile(pooled, 0.9),
                percentile(pooled, 0.99),
                pooled.size() >= 1000 ? "" : " (p99 unsupported)");
  }
  report.metric("slo_rate_ips", slo_rate, "1/s");
  report.metric("ips.after_death", phases[1].ips, "1/s");
  report.metric("ips.after_rejoin", phases[2].ips, "1/s");
}

TraceSession::TraceSession() { obs::TraceRecorder::instance().enable({}); }

TraceSession::~TraceSession() { obs::TraceRecorder::instance().disable(); }

}  // namespace pb
