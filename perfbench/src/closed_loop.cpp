// The three closed-loop workloads, all served through runtime::serve_stream
// with K images in flight: stream-halo, stream-compute and churn-hetero.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <functional>
#include <span>

#include "bench.hpp"
#include "cnn/layer_volume.hpp"
#include "cnn/model_zoo.hpp"
#include "core/distredge.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/planner.hpp"
#include "runtime/cluster.hpp"
#include "runtime/serve.hpp"

namespace pb {

using namespace de;

namespace {

constexpr int kInflight = 4;

/// One serve_stream call over `n` pool inputs starting at `first`, with
/// every output checked against its reference. A call that throws counts
/// all of its images as failed and is reported, never rethrown.
struct Lap {
  bool ok = false;
  runtime::ServeResult result;
  double call_s = 0;  ///< whole call: bring-up + stream + teardown
  int n = 0;

  double bringup_s() const { return call_s - result.wall_s; }
};

Lap serve_lap(const cnn::CnnModel& model, const sim::RawStrategy& strategy,
              const std::vector<cnn::ConvWeights>& weights,
              const InputPool& pool, int first, int n, int n_devices,
              runtime::ServeOptions options, Report& report) {
  const int p = static_cast<int>(pool.inputs.size());
  std::vector<cnn::Tensor> inputs;
  std::vector<int> which;
  inputs.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    which.push_back((first + k) % p);
    inputs.push_back(pool.inputs[static_cast<std::size_t>(which.back())]);
  }
  options.keep_outputs = true;
  options.inflight = kInflight;

  Lap lap;
  lap.n = n;
  report.attempted += n;
  const auto t0 = Clock::now();
  try {
    lap.result = runtime::serve_stream(model, strategy, weights, inputs,
                                       n_devices, options);
    lap.ok = true;
  } catch (const std::exception& e) {
    report.failed += n;
    report.note("serve_stream threw after %.3f s, %d images undelivered: %s",
                secs(t0, Clock::now()), n, e.what());
  }
  lap.call_s = secs(t0, Clock::now());
  if (!lap.ok) {
    release_free_heap();
    return lap;
  }
  auto& outputs = lap.result.outputs;
  for (int k = 0; k < n; ++k) {
    const auto& ref = pool.refs[static_cast<std::size_t>(which[k])];
    const auto ku = static_cast<std::size_t>(k);
    if (ku < outputs.size() && bit_exact(outputs[ku], ref)) continue;
    ++report.failed;
    if (ku < outputs.size() && !outputs[ku].data.empty()) {
      report.correct = false;
    }
  }
  outputs.clear();
  outputs.shrink_to_fit();
  release_free_heap();
  return lap;
}

/// Data-plane counters of one or more laps, per image.
struct RpcTotals {
  double images = 0;
  double messages = 0;
  double wire_bytes = 0;
  double payload_bytes = 0;
  double bytes_copied = 0;
  double frame_allocs = 0;
  double retransmits = 0;

  void add(const Lap& lap) {
    if (!lap.ok) return;
    const auto& r = lap.result;
    images += lap.n;
    messages += static_cast<double>(r.messages_exchanged);
    wire_bytes += static_cast<double>(r.wire_bytes);
    payload_bytes += static_cast<double>(r.bytes_moved);
    bytes_copied += static_cast<double>(r.bytes_copied);
    frame_allocs += static_cast<double>(r.frame_allocs);
    retransmits += static_cast<double>(r.retransmits);
  }
  void fill(LayerFigures& f) const {
    const double per = images > 0 ? 1.0 / images : 0.0;
    f.messages_per_image = messages * per;
    f.wire_bytes_per_image = wire_bytes * per;
    f.copies_per_halo_byte =
        payload_bytes > 0 ? bytes_copied / payload_bytes : 0.0;
    f.frame_allocs_per_image = frame_allocs * per;
    f.retransmits = retransmits;
  }
};

/// A closed-loop workload: a model on a fleet, a planning-side set-up, and
/// lap sizes that keep the benchmark's own input copies small.
struct ClosedLoopSpec {
  cnn::CnnModel model;
  int n_devices = 0;
  bool use_tcp = false;
  int pool_images = 0;  ///< distinct inputs (references are computed once)
  int lap_images = 0;   ///< images per serve_stream call
  /// Images per lap in traced runs: small enough that no thread's trace
  /// ring wraps within a lap (a wrapped ring loses the oldest spans).
  int traced_lap_images = 0;
  net::Network network{1};
  /// Fills setup.strategy and setup.plan_ms (profile already filled).
  std::function<void(PlanSetup&)> plan;
};

PlanSetup plan_setup(const ClosedLoopSpec& spec) {
  PlanSetup setup;
  const auto t0 = Clock::now();
  profile_into(setup, spec.model, spec.n_devices,
               cnn::ExecContext::fast_shared());
  spec.plan(setup);
  predict_into(setup, spec.model, spec.network);
  setup.total_s = secs(t0, Clock::now());
  return setup;
}

/// The planning-side set-up, repeated (see more_setups); returns the last
/// one, with the median wall in total_s.
PlanSetup repeated_plan_setup(const ClosedLoopSpec& spec, Report& report) {
  std::vector<double> walls;
  PlanSetup setup;
  const auto t0 = Clock::now();
  while (more_setups(walls.size(), secs(t0, Clock::now()))) {
    setup = plan_setup(spec);
    walls.push_back(setup.total_s);
  }
  setup.total_s = median(walls);
  report.note("planning set-up (median of %zu): %.4f s; profile %.1f ms, "
              "plan %.3f ms, %d volumes, predicted %.2f IPS / %.3f ms per "
              "image",
              walls.size(), setup.total_s, setup.profile_ms, setup.plan_ms,
              static_cast<int>(setup.strategy.volumes.size()),
              setup.predicted_ips, setup.plan_predicted_ms);
  report.notes.push_back("strategy: " + strategy_text(setup.strategy));
  return setup;
}

std::vector<double> lap_ips(const std::vector<Lap>& laps);

/// The laps of one run. Untraced runs serve untraced laps for
/// config.seconds (at least 3). Traced runs first serve one traced lap of
/// the untraced size, whose event loss is the recorder's at the length the
/// workload is measured at. Then they alternate short untraced and traced
/// laps, U T T U, so host drift cancels out of the overhead ratio, until
/// the time is up and there are at least 2 of each. The short laps give
/// the attribution: no thread's trace ring wraps within one.
struct LapSet {
  std::vector<Lap> plain;
  std::vector<Lap> traced;
  std::vector<obs::AttributionReport> attributions;
  TraceLoss loss;       ///< of the short traced laps
  TraceLoss full_loss;  ///< of the full-length traced lap

  double ips() const { return lap_rate(lap_ips(plain)); }
};

std::vector<double> lap_ips(const std::vector<Lap>& laps) {
  std::vector<double> v;
  for (const auto& l : laps) {
    if (l.ok) v.push_back(l.result.measured_ips);
  }
  return v;
}

/// `lap(index, full, capture)` serves one lap; `full` asks for the
/// untraced lap size in a traced run.
LapSet run_laps(
    const RunConfig& config,
    const std::function<Lap(int index, bool full, obs::TraceCapture*)>& lap) {
  LapSet set;
  if (config.trace) {
    obs::TraceCapture capture;
    {
      TraceSession session;
      (void)lap(0, true, &capture);
    }
    set.full_loss.add(capture.dump);
  }
  const auto t0 = Clock::now();
  for (int i = 0;; ++i) {
    const bool enough =
        set.plain.size() >= 3 && secs(t0, Clock::now()) >= config.seconds;
    if (enough && (!config.trace || set.traced.size() >= 2)) break;
    if (config.trace && (i % 4 == 1 || i % 4 == 2)) {
      obs::TraceCapture capture;
      Lap l = [&] {
        TraceSession session;
        return lap(i, false, &capture);
      }();
      set.loss.add(capture.dump);
      if (l.ok) set.attributions.push_back(std::move(l.result.attribution));
      set.traced.push_back(std::move(l));
    } else {
      set.plain.push_back(lap(i, false, nullptr));
    }
  }
  return set;
}

/// Median bring-up (serve call minus wall_s) of the untraced laps.
double median_bringup(const std::vector<Lap>& laps) {
  std::vector<double> v;
  for (const auto& l : laps) {
    if (l.ok) v.push_back(l.bringup_s());
  }
  return median(std::move(v));
}

/// The per-layer figures every closed loop fills the same way, plus the
/// kernel ledger.
LayerFigures closed_loop_figures(Report& report, const cnn::CnnModel& model,
                                 const std::vector<cnn::ConvWeights>& weights,
                                 const InputPool& pool, const PlanSetup& setup,
                                 const LapSet& set) {
  LayerFigures f;
  f.core_plan_ms = setup.plan_ms;
  f.core_plan_predicted_ms = setup.plan_predicted_ms;
  f.sim_predicted_ips = setup.predicted_ips;
  f.measured_ips = set.ips();
  RpcTotals rpc;
  for (const auto& l : set.plain) rpc.add(l);
  for (const auto& l : set.traced) rpc.add(l);
  rpc.fill(f);
  f.attribution = summarize(set.attributions);
  const double traced_ips = lap_rate(lap_ips(set.traced));
  f.trace_overhead =
      f.measured_ips > 0 ? 1.0 - traced_ips / f.measured_ips : 0.0;
  f.events_dropped_frac = set.full_loss.dropped_frac();
  report.note("laps: %zu untraced at %.3f IPS, %zu traced at %.3f IPS; "
              "%llu trace events kept, %llu dropped in the short traced "
              "laps, %llu kept, %llu dropped in the full-length one",
              set.plain.size(), f.measured_ips, set.traced.size(), traced_ips,
              static_cast<unsigned long long>(set.loss.events),
              static_cast<unsigned long long>(set.loss.dropped),
              static_cast<unsigned long long>(set.full_loss.events),
              static_cast<unsigned long long>(set.full_loss.dropped));
  ledger_metrics(report, time_parts(model, setup.strategy, weights,
                                    pool.inputs.front(),
                                    cnn::ExecContext::fast_shared(),
                                    *setup.profile, 5));
  return f;
}

Report run_closed_loop(const RunConfig& config, const ClosedLoopSpec& spec) {
  Report report;
  report.engine = cnn::to_string(cnn::ExecEngine::kFast);
  // Set-up first, in a fresh single-threaded process, so the heap layout
  // it measures in does not depend on the harness's own threads.
  const PlanSetup setup = repeated_plan_setup(spec, report);
  const auto weights = model_weights(spec.model);
  Rng rng(config.seed);
  const auto pool = make_pool(spec.model, weights, spec.pool_images, rng);
  release_free_heap();

  const int lap_images =
      config.trace ? spec.traced_lap_images : spec.lap_images;
  const auto lap = [&](int index, int n, obs::TraceCapture* capture) {
    runtime::ServeOptions o;
    o.use_tcp = spec.use_tcp;
    o.trace = capture;
    // A capture turns on per-image telemetry; in traced runs the untraced
    // laps publish at the same cadence, so the overhead is tracing's own.
    if (config.trace) o.telemetry_every = 1;
    return serve_lap(spec.model, setup.strategy, weights, pool,
                     index * lap_images, n, spec.n_devices, o, report);
  };
  // Warm-up lap: thread pool, packed weights, page cache, TCP stack.
  (void)lap(0, std::max(8, lap_images / 4), nullptr);
  const LapSet set =
      run_laps(config, [&](int i, bool full, obs::TraceCapture* c) {
        return lap(i + 1, full ? spec.lap_images : lap_images, c);
      });

  const auto rates = lap_ips(set.plain);
  report.note("%zu measured laps of %d images: lap IPS median %.3f, upper "
              "quartile %.3f (min %.3f, max %.3f); bring-up+teardown median "
              "%.4f s",
              set.plain.size(), lap_images, median(rates), set.ips(),
              percentile(rates, 0.0), percentile(rates, 1.0),
              median_bringup(set.plain));

  if (config.trace) {
    layer_metrics(report, closed_loop_figures(report, spec.model, weights,
                                              pool, setup, set));
    return report;
  }
  // A closed loop has one load level: every phase reports the latency of
  // the whole run. The phases' rates are those of the first, middle and
  // last third of the laps, so throughput drift across a run shows.
  std::vector<std::vector<double>> latency;
  std::vector<double> third_ips[3];
  const std::size_t n = set.plain.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& l = set.plain[i];
    if (!l.ok) continue;
    latency.push_back(
        closed_loop_latency_ms(l.result.delivered_at_s, kInflight));
    third_ips[std::min<std::size_t>(2, i * 3 / n)].push_back(
        l.result.measured_ips);
  }
  Phase phases[3];
  for (int p = 0; p < 3; ++p) {
    phases[p].latency_ms = latency;
    phases[p].ips = lap_rate(third_ips[p]);
  }
  e2e_metrics(report, set.ips(), setup.total_s + median_bringup(set.plain),
              phases);
  return report;
}

/// Per-layer volumes with staggered cuts: even volumes cut at j*h/n, odd
/// volumes at the midpoints ((2j-1)*h)/(2n), so every volume boundary
/// moves most rows to another device.
sim::RawStrategy staggered_strategy(const cnn::CnnModel& m, int n_devices) {
  sim::RawStrategy strategy;
  std::vector<int> boundaries;
  for (int l = 0; l <= m.num_layers(); ++l) boundaries.push_back(l);
  strategy.volumes = cnn::volumes_from_boundaries(boundaries, m.num_layers());
  for (std::size_t v = 0; v < strategy.volumes.size(); ++v) {
    const int h = cnn::volume_out_height(m, strategy.volumes[v]);
    std::vector<int> cuts{0};
    for (int j = 1; j < n_devices; ++j) {
      const int at = v % 2 == 0 ? j * h / n_devices
                                : std::min(h, ((2 * j - 1) * h + n_devices) /
                                                  (2 * n_devices));
      cuts.push_back(std::clamp(at, cuts.back(), h));
    }
    cuts.push_back(h);
    strategy.cuts.push_back(std::move(cuts));
  }
  return strategy;
}

core::PlanContext plan_context(const cnn::CnnModel& model,
                               const PlanSetup& setup,
                               const net::Network& network) {
  core::PlanContext ctx;
  ctx.model = &model;
  ctx.latency = setup.latency;
  ctx.network = &network;
  return ctx;
}

}  // namespace

Report run_stream_halo(const RunConfig& config) {
  ClosedLoopSpec spec;
  spec.model = cnn::edgenet();
  spec.n_devices = 6;
  spec.use_tcp = true;
  spec.pool_images = 16;
  spec.lap_images = 128;
  spec.traced_lap_images = 32;
  // Loopback TCP has no radio; the simulator sees it as 10 Gbps links.
  spec.network = net::Network(spec.n_devices, 10000.0, 10000.0);
  spec.plan = [&spec](PlanSetup& setup) {
    const auto t0 = Clock::now();
    setup.strategy = staggered_strategy(spec.model, spec.n_devices);
    setup.plan_ms = secs(t0, Clock::now()) * 1e3;
  };
  return run_closed_loop(config, spec);
}

Report run_stream_compute(const RunConfig& config) {
  ClosedLoopSpec spec;
  spec.model = cnn::resnet50();
  spec.n_devices = 4;
  spec.use_tcp = false;
  spec.pool_images = 4;
  spec.lap_images = 32;
  spec.traced_lap_images = 12;
  // In-process transport moves refcounts, not bytes: 100 Gbps links.
  spec.network = net::Network(spec.n_devices, 100000.0, 100000.0);
  spec.plan = [&spec](PlanSetup& setup) {
    ctrl::BandwidthProportionalPlanner planner;
    const auto ctx = plan_context(spec.model, setup, spec.network);
    const auto t0 = Clock::now();
    const auto plan = planner.plan(ctx);
    setup.plan_ms = secs(t0, Clock::now()) * 1e3;
    setup.strategy = plan.to_raw(spec.model);
  };
  return run_closed_loop(config, spec);
}

// ---------------------------------------------------------------------------
// churn-hetero

namespace {

constexpr int kChurnDevices = 6;
constexpr int kChurnVictim = 1;
/// Per-device link rates (Mbps): the paper's Table II group ND (50, 100,
/// 200, 300 Mbps, its Fig. 8 group with all four rates) cycled over six
/// devices. The victim, device 1, has a 100 Mbps link.
constexpr double kChurnMbps[kChurnDevices] = {50, 100, 200, 300, 50, 100};
/// The requester's link: the group's fastest rate. With the requester at
/// 150 Mbps or below, every kill/revive lap of this workload aborts (see
/// the README), so no metric of it could be measured.
constexpr double kRequesterMbps = 300;

net::Network churn_network() {
  net::Network network(kChurnDevices, kRequesterMbps, kRequesterMbps);
  for (int i = 0; i < kChurnDevices; ++i) {
    network.set_device_link(i, net::Link::constant(kChurnMbps[i]));
  }
  return network;
}

/// Stream times of one churn lap's membership events (-1 = missing): the
/// kill, the survivor epoch, the revive, and the adoption epoch.
struct ChurnTimes {
  double kill = -1;
  double dead = -1;
  double revive = -1;
  double joined = -1;

  explicit ChurnTimes(const runtime::ServeResult& r) {
    if (r.chaos_applied_at_s.size() > 0) kill = r.chaos_applied_at_s[0];
    if (r.chaos_applied_at_s.size() > 1) revive = r.chaos_applied_at_s[1];
    for (const auto& ev : r.reconfigurations) {
      if (ev.deaths > 0 && dead < 0) dead = ev.at_s;
      if (ev.joins > 0 && joined < 0) joined = ev.at_s;
    }
  }
};

}  // namespace

Report run_churn_hetero(const RunConfig& config) {
  Report report;
  report.engine = cnn::to_string(cnn::ExecEngine::kFast);
  const auto model = cnn::edgenet();
  const net::Network network = churn_network();

  // Planning-side set-up: measured profile, DistrEdge plan (LC-PSS +
  // OSDS), simulator prediction. The planner keeps its default seed: it is
  // part of the system under test, not of the workload's inputs, and plans
  // from different planner seeds measure from 73 to 180 IPS here.
  ClosedLoopSpec spec;
  spec.model = model;
  spec.n_devices = kChurnDevices;
  spec.network = network;
  spec.plan = [&](PlanSetup& setup) {
    core::DistrEdgeConfig dc;
    dc.osds.max_episodes = 200;
    core::DistrEdgePlanner planner(dc);
    const auto ctx = plan_context(model, setup, network);
    const auto t0 = Clock::now();
    const auto plan = planner.plan(ctx);
    setup.plan_ms = secs(t0, Clock::now()) * 1e3;
    setup.strategy = plan.to_raw(model);
  };
  const PlanSetup setup = repeated_plan_setup(spec, report);
  const auto weights = model_weights(model);
  Rng rng(config.seed);
  const auto pool = make_pool(model, weights, 16, rng);
  release_free_heap();

  rpc::FaultSpec faults;  // zero probabilities: the kill switch only
  faults.seed = config.seed;
  rpc::ShapingSpec shaping;
  for (int i = 0; i < kChurnDevices; ++i) {
    shaping.node_traces.push_back(net::ThroughputTrace::constant(kChurnMbps[i]));
  }
  shaping.node_traces.push_back(net::ThroughputTrace::constant(kRequesterMbps));
  ctrl::BandwidthProportionalPlanner replanner;

  // Every lap is a whole kill/revive cycle.
  const LapSet set = run_laps(config, [&](int, bool full,
                                          obs::TraceCapture* capture) {
    // Traced laps are shorter so no thread's trace ring wraps within one;
    // the full-length traced lap measures the recorder's loss.
    const int n = config.trace && !full ? 90 : 150;
    const int kill_at = n / 3;
    const int revive_at = 2 * n / 3;
    ctrl::ControllerConfig cc;
    cc.planner = &replanner;
    cc.model = &model;
    cc.latency = setup.latency;
    cc.network = network;
    cc.poll_ms = 2;
    cc.lease_ms = 80;
    cc.drift_threshold = 1e9;  // membership decisions only
    ctrl::Controller controller(cc);

    runtime::ServeOptions o;
    o.use_tcp = true;
    o.faults = &faults;
    o.shaping = &shaping;
    o.reliability.enabled = true;
    o.heartbeat_ms = 5;
    o.provider_max_restarts = 8;
    o.controller = &controller;
    o.trace = capture;
    o.chaos = {{kill_at, kChurnVictim, true}, {revive_at, kChurnVictim, false}};
    return serve_lap(model, setup.strategy, weights, pool, 0, n,
                     kChurnDevices, o, report);
  });

  // Phases per lap: stable (before the kill), from the survivor epoch to
  // the revive, from the adoption epoch to the end. A missing event falls
  // back to the chaos time, then to the end of the stream.
  Phase phases[3];
  std::vector<double> phase_ips[3];
  std::vector<double> recovery, adoption;
  double cancelled = 0, deaths = 0, joins = 0, restarts = 0;
  int ok_laps = 0;
  for (const auto& l : set.plain) {
    if (!l.ok) continue;
    ++ok_laps;
    const auto& r = l.result;
    const ChurnTimes t(r);
    const double end = r.wall_s;
    const double t_kill = t.kill >= 0 ? t.kill : end;
    const double t_dead = t.dead >= 0 ? t.dead : t_kill;
    const double t_revive = t.revive >= 0 ? t.revive : end;
    const double t_join = t.joined >= 0 ? t.joined : t_revive;
    const double bounds[3][2] = {
        {0.0, t_kill}, {t_dead, t_revive}, {t_join, end}};
    const auto lat = closed_loop_latency_ms(r.delivered_at_s, kInflight);
    for (int p = 0; p < 3; ++p) {
      auto& lap_latency = phases[p].latency_ms.emplace_back();
      int delivered = 0;
      for (std::size_t k = 0; k < r.delivered_at_s.size(); ++k) {
        const double at = r.delivered_at_s[k];
        if (at > bounds[p][0] && at <= bounds[p][1]) {
          ++delivered;
          lap_latency.push_back(lat[k]);
        }
      }
      const double span = bounds[p][1] - bounds[p][0];
      if (span > 0) phase_ips[p].push_back(delivered / span);
    }
    if (t.dead >= 0 && t.kill >= 0) recovery.push_back((t.dead - t.kill) * 1e3);
    if (t.joined >= 0 && t.revive >= 0) {
      adoption.push_back((t.joined - t.revive) * 1e3);
    }
    cancelled += static_cast<double>(r.images_cancelled);
    deaths += r.deaths;
    joins += r.joins;
    restarts += static_cast<double>(r.provider_restarts);
    report.note("churn lap: %.3f IPS, wall %.3f s; kill %.3f s, survivor "
                "epoch %.3f s, revive %.3f s, adoption epoch %.3f s; deaths "
                "%d joins %d cancelled %lld restarts %lld",
                r.measured_ips, r.wall_s, t.kill, t.dead, t.revive, t.joined,
                r.deaths, r.joins, static_cast<long long>(r.images_cancelled),
                static_cast<long long>(r.provider_restarts));
  }
  if (!config.trace) {
    for (int p = 0; p < 3; ++p) phases[p].ips = lap_rate(phase_ips[p]);
    e2e_metrics(report, set.ips(), setup.total_s + median_bringup(set.plain),
                phases);
    return report;
  }
  LayerFigures f =
      closed_loop_figures(report, model, weights, pool, setup, set);
  // Per-lap figures of the untraced laps: median times, mean counts.
  const double per_lap = ok_laps > 0 ? 1.0 / ok_laps : 0.0;
  f.recovery_ms = median(recovery);
  f.adoption_ms = median(adoption);
  f.images_cancelled = cancelled * per_lap;
  f.deaths = deaths * per_lap;
  f.joins = joins * per_lap;
  f.provider_restarts = restarts * per_lap;
  layer_metrics(report, f);
  return report;
}

}  // namespace pb
