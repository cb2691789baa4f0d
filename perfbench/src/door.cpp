// door-cameras: the serving front door under an open loop. Eight camera
// streams of two tenants arrive on a fixed schedule at three per-camera
// frame rates (low, mid, high, in that order) through serve::StreamServer
// on a loopback-TCP fleet of spawn_providers_multi providers spawned with
// the defaults its callers use. One thread submits every camera's frames
// at their due times and one thread pops every output; each frame is timed
// from its due time, so a stalled submit counts against the frames behind
// it.
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "cnn/model_zoo.hpp"
#include "ctrl/planner.hpp"
#include "obs/trace_export.hpp"
#include "runtime/cluster.hpp"
#include "runtime/fabric.hpp"
#include "serve/stream_server.hpp"

namespace pb {

using namespace de;

namespace {

constexpr int kDevices = 6;
constexpr int kCameras = 8;
constexpr int kEdgenetCameras = 6;  ///< cameras 0..5 edgenet, 6..7 serve-mini
/// Per-camera frame rates (frames/s) of the low, mid and high phases.
constexpr double kFps[3] = {4.0, 6.0, 30.0};
/// Frames each camera offers per phase in one pass: 2 s at low, 1.5 s at
/// mid, 0.8 s at high. The counts, not --seconds, fix how long a phase offers
/// frames, so the backlog that high builds is the same on every run.
constexpr int kFrames[3] = {8, 9, 24};
/// Frames each camera sends and pops before a pass's clock starts.
constexpr int kWarmupFrames = 2;

/// serve_scale's small second tenant.
cnn::CnnModel serve_mini() {
  return cnn::ModelBuilder("serve-mini", 24, 24, 3)
      .conv_same(8, 3)
      .conv_same(8, 3)
      .maxpool(2, 2)
      .conv_same(12, 3)
      .conv(12, 3, 2, 1)
      .build();
}

struct Tenant {
  cnn::CnnModel model;
  std::vector<cnn::ConvWeights> weights;
  InputPool pool;
  PlanSetup setup;          ///< profile + base strategy
  sim::RawStrategy alt;     ///< what odd cameras swap to mid-run
};

/// A running fleet and its front door; tears down in dependency order.
struct Fleet {
  runtime::ClusterFabric fabric;
  runtime::DataPlaneStats stats;
  runtime::Supervisor providers;
  std::unique_ptr<serve::StreamServer> server;
  std::vector<int> streams;  ///< stream id per camera

  ~Fleet() {
    if (server) server->close();
    server.reset();
    providers.join_all();
  }
};

std::unique_ptr<Fleet> bring_up(const std::vector<runtime::TenantModel>& models,
                                const std::vector<serve::TenantSpec>& specs) {
  auto fleet = std::make_unique<Fleet>();
  fleet->fabric = runtime::make_fabric(kDevices, /*use_tcp=*/true);
  fleet->providers =
      runtime::spawn_providers_multi(fleet->fabric, kDevices, models,
                                     fleet->stats);
  serve::StreamServerOptions options;
  options.max_streams = 16;
  fleet->server = std::make_unique<serve::StreamServer>(
      fleet->fabric.requester(), kDevices, specs, fleet->stats, options);
  for (int c = 0; c < kCameras; ++c) {
    fleet->streams.push_back(
        fleet->server->open_stream(c < kEdgenetCameras ? 0 : 1));
  }
  return fleet;
}

struct Frame {
  int camera = 0;
  int input = 0;
  int phase = 0;
  double due_s = 0;
};

/// What one pass of the schedule measured.
struct Pass {
  std::int64_t warmup_attempted = 0;
  std::int64_t warmup_delivered = 0;  ///< bit-exact
  std::vector<Frame> frames;
  std::vector<double> lateness_ms;  ///< submit call start - due
  std::vector<double> done_s;       ///< pop return, run time
  std::vector<char> exact;
  std::int64_t delivered = 0;
  std::int64_t wrong = 0;
  double phase_start_s[3] = {0, 0, 0};
  double phase_end_s[3] = {0, 0, 0};
};

std::vector<Frame> schedule(Rng& rng, int pool_images, Pass& pass) {
  std::vector<Frame> frames;
  double start = 0;
  for (int p = 0; p < 3; ++p) {
    const double span = kFrames[p] / kFps[p];
    pass.phase_start_s[p] = start;
    pass.phase_end_s[p] = start + span;
    for (int c = 0; c < kCameras; ++c) {
      for (int j = 0; j < kFrames[p]; ++j) {
        Frame f;
        f.camera = c;
        f.phase = p;
        f.input = rng.uniform_int(0, pool_images - 1);
        f.due_s = start + (j + static_cast<double>(c) / kCameras) / kFps[p];
        frames.push_back(f);
      }
    }
    start += span;
  }
  std::stable_sort(frames.begin(), frames.end(),
                   [](const Frame& a, const Frame& b) {
                     return a.due_s < b.due_s;
                   });
  return frames;
}

const Tenant& tenant_of(const std::vector<Tenant>& tenants, int camera) {
  return tenants[camera < kEdgenetCameras ? 0 : 1];
}

/// Sends kWarmupFrames frames per camera and pops them, so the first
/// timed frames of a fresh fleet do not pay its first-use costs (thread
/// wake-ups, first connections, first-touch buffers).
void warm_up(Fleet& fleet, const std::vector<Tenant>& tenants, Pass& pass) {
  auto& server = *fleet.server;
  std::vector<std::pair<int, int>> sent;  // (camera, input), submit order
  for (int j = 0; j < kWarmupFrames; ++j) {
    for (int c = 0; c < kCameras; ++c) {
      ++pass.warmup_attempted;
      if (server.submit(fleet.streams[static_cast<std::size_t>(c)],
                        tenant_of(tenants, c)
                            .pool.inputs[static_cast<std::size_t>(j)])) {
        sent.emplace_back(c, j);
      }
    }
  }
  for (const auto& [c, j] : sent) {
    const auto out = server.pop(fleet.streams[static_cast<std::size_t>(c)]);
    if (!out.has_value()) continue;
    if (bit_exact(*out, tenant_of(tenants, c)
                            .pool.refs[static_cast<std::size_t>(j)])) {
      ++pass.warmup_delivered;
    } else {
      ++pass.wrong;
    }
  }
}

/// Drives one pass of the schedule through `fleet`: this thread submits,
/// one helper thread pops. Odd cameras swap strategy at the midpoint.
Pass drive(Fleet& fleet, const std::vector<Tenant>& tenants, Rng& rng) {
  Pass pass;
  warm_up(fleet, tenants, pass);
  pass.frames = schedule(rng, static_cast<int>(tenants[0].pool.inputs.size()),
                         pass);
  const std::size_t n = pass.frames.size();
  pass.lateness_ms.assign(n, 0.0);
  pass.done_s.assign(n, 0.0);
  pass.exact.assign(n, 0);
  const double swap_at = pass.phase_end_s[0] + (pass.phase_end_s[1] -
                                                pass.phase_start_s[1]) / 2;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> fifo;  // submitted frames, submission order
  bool submitting = true;
  const auto t0 = Clock::now();
  auto& server = *fleet.server;

  std::thread popper([&] {
    for (;;) {
      std::size_t i = 0;
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return !fifo.empty() || !submitting; });
        if (fifo.empty()) return;
        i = fifo.front();
        fifo.pop_front();
      }
      const auto& f = pass.frames[i];
      auto out = server.pop(fleet.streams[static_cast<std::size_t>(f.camera)]);
      pass.done_s[i] = secs(t0, Clock::now());
      if (!out.has_value()) continue;
      const auto& t = tenant_of(tenants, f.camera);
      if (bit_exact(*out, t.pool.refs[static_cast<std::size_t>(f.input)])) {
        pass.exact[i] = 1;
      } else {
        pass.exact[i] = 2;  // delivered, not bit-exact
      }
    }
  });

  const auto stop_popper = [&] {
    {
      std::lock_guard lock(mu);
      submitting = false;
    }
    cv.notify_one();
    popper.join();
  };
  try {
    bool swapped = false;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& f = pass.frames[i];
      if (!swapped && f.due_s >= swap_at) {
        for (int c = 1; c < kCameras; c += 2) {
          const auto& t = tenant_of(tenants, c);
          server.swap_strategy(fleet.streams[static_cast<std::size_t>(c)],
                               t.alt);
        }
        swapped = true;
      }
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(f.due_s)));
      pass.lateness_ms[i] = (secs(t0, Clock::now()) - f.due_s) * 1e3;
      const auto& t = tenant_of(tenants, f.camera);
      if (!server.submit(fleet.streams[static_cast<std::size_t>(f.camera)],
                         t.pool.inputs[static_cast<std::size_t>(f.input)])) {
        pass.done_s[i] = secs(t0, Clock::now());
        continue;
      }
      std::lock_guard lock(mu);
      fifo.push_back(i);
      cv.notify_one();
    }
  } catch (...) {
    // The popper reads `pass` and `server`: wake it (close() releases
    // every pop) and join it before either goes.
    server.close();
    stop_popper();
    throw;
  }
  stop_popper();
  for (const char e : pass.exact) {
    if (e == 1) ++pass.delivered;
    if (e == 2) ++pass.wrong;
  }
  return pass;
}

/// Front-door and data-plane counters summed over passes, each read
/// while its fleet is alive.
struct FrontDoorTotals {
  double delivered = 0;
  double messages = 0;
  double wire_bytes = 0;
  double payload_bytes = 0;
  double bytes_copied = 0;
  double frame_allocs = 0;
  double retransmits = 0;
  double credit_stalls = 0;
  std::vector<double> server_ms;

  void add(const Fleet& fleet, const Pass& pass) {
    const auto load = [](const auto& a) {
      return static_cast<double>(a.load(std::memory_order_relaxed));
    };
    const auto& st = fleet.stats;
    delivered += static_cast<double>(pass.delivered + pass.warmup_delivered);
    messages += load(st.messages);
    wire_bytes += load(st.wire_bytes);
    payload_bytes += load(st.bytes);
    bytes_copied += load(st.bytes_copied);
    frame_allocs += load(st.frame_allocs);
    retransmits += load(st.retransmits);
    for (const int id : fleet.streams) {
      const auto snap = fleet.server->snapshot(id);
      credit_stalls += static_cast<double>(snap.credit_stalls);
      server_ms.insert(server_ms.end(), snap.latency_ms.begin(),
                       snap.latency_ms.end());
    }
  }
  void fill(LayerFigures& f) const {
    const double per = delivered > 0 ? 1.0 / delivered : 0.0;
    f.messages_per_image = messages * per;
    f.wire_bytes_per_image = wire_bytes * per;
    f.copies_per_halo_byte =
        payload_bytes > 0 ? bytes_copied / payload_bytes : 0.0;
    f.frame_allocs_per_image = frame_allocs * per;
    f.retransmits = retransmits;
    f.credit_stalls = credit_stalls;
    f.server_latency_ms = median(server_ms);
  }
};

/// Phase p of one or more passes: its frames' latencies per pass, its
/// bit-exact deliveries, the time from each pass's phase start to its last
/// delivery, and the rate and number of frames offered.
struct DoorPhase {
  std::vector<std::vector<double>> latency_ms;
  double delivered = 0;
  double duration_s = 0;
  double offered = 0;
  double offered_s = 0;  ///< time the schedule spent offering them
  /// Bit-exact frames popped no later than the SLO limit after the phase
  /// stopped offering: every frame a phase without a growing backlog pops.
  double on_time = 0;

  DoorPhase(const std::vector<Pass>& passes, int p,
            bool edgenet_only = false) {
    for (const auto& pass : passes) {
      auto& pass_latency = latency_ms.emplace_back();
      double last = pass.phase_start_s[p];
      const double deadline = pass.phase_end_s[p] + kSloP90Ms / 1e3;
      for (std::size_t i = 0; i < pass.frames.size(); ++i) {
        const auto& f = pass.frames[i];
        if (f.phase != p) continue;
        if (edgenet_only && f.camera >= kEdgenetCameras) continue;
        ++offered;
        pass_latency.push_back((pass.done_s[i] - f.due_s) * 1e3);
        if (pass.exact[i] == 1) {
          ++delivered;
          if (pass.done_s[i] <= deadline) ++on_time;
        }
        last = std::max(last, pass.done_s[i]);
      }
      duration_s += last - pass.phase_start_s[p];
      offered_s += pass.phase_end_s[p] - pass.phase_start_s[p];
    }
  }
  double ips() const { return duration_s > 0 ? delivered / duration_s : 0.0; }
  Phase phase() const {
    return {latency_ms, ips(), offered_s > 0 ? offered / offered_s : 0.0,
            offered > 0 ? on_time / offered : 0.0};
  }
};

/// Generator lateness (ms) of phase p's frames over several passes.
std::vector<double> lateness(const std::vector<Pass>& passes, int p) {
  std::vector<double> v;
  for (const auto& pass : passes) {
    for (std::size_t i = 0; i < pass.frames.size(); ++i) {
      if (pass.frames[i].phase == p) v.push_back(pass.lateness_ms[i]);
    }
  }
  return v;
}

void plan_tenant(Tenant& t, const net::Network& network) {
  const auto t0 = Clock::now();
  // The fleet's providers run the engine spawn_providers_multi defaults
  // to, so the profile the planner and simulator read uses it too.
  profile_into(t.setup, t.model, kDevices, cnn::ExecContext{});
  core::PlanContext ctx;
  ctx.model = &t.model;
  ctx.latency = t.setup.latency;
  ctx.network = &network;
  ctrl::BandwidthProportionalPlanner planner;
  const auto tp = Clock::now();
  t.setup.strategy = planner.plan(ctx).to_raw(t.model);
  t.setup.plan_ms = secs(tp, Clock::now()) * 1e3;
  ctrl::ProportionalConfig coarse;
  coarse.layers_per_volume = 3;
  t.alt = ctrl::BandwidthProportionalPlanner(coarse).plan(ctx).to_raw(t.model);
  predict_into(t.setup, t.model, network);
  t.setup.total_s = secs(t0, Clock::now());
}

}  // namespace

Report run_door_cameras(const RunConfig& config) {
  Report report;
  report.engine = cnn::to_string(cnn::ExecContext{}.engine);
  std::vector<Tenant> tenants(2);
  tenants[0].model = cnn::edgenet();
  tenants[1].model = serve_mini();
  // Set-up first, in a fresh single-threaded process, so the heap layout
  // it measures in does not depend on the harness's own threads.
  // Loopback TCP has no radio; the planner and simulator see 10 Gbps.
  const net::Network network(kDevices, 10000.0, 10000.0);
  std::vector<double> plan_walls;
  const auto tp = Clock::now();
  while (more_setups(plan_walls.size(), secs(tp, Clock::now()))) {
    double wall = 0;
    for (auto& t : tenants) {
      t.setup = PlanSetup{};
      plan_tenant(t, network);
      wall += t.setup.total_s;
    }
    plan_walls.push_back(wall);
  }
  Rng rng(config.seed);
  for (auto& t : tenants) {
    t.weights = model_weights(t.model);
    t.pool = make_pool(t.model, t.weights, 16, rng);
  }
  release_free_heap();
  std::vector<runtime::TenantModel> models;
  std::vector<serve::TenantSpec> specs;
  for (const auto& t : tenants) {
    models.push_back({&t.model, &t.weights});
    specs.push_back({&t.model, &t.weights, t.setup.strategy});
  }

  // The schedule runs in passes, each on a freshly brought-up fleet, with
  // the phases pooled: how a fleet's threads land on the cores moves its
  // latency by several percent, so one fleet per run would make the run's
  // figures that fleet's. Passes go on until --seconds have passed and
  // there are at least two of each kind; traced runs trace half of them,
  // in the order untraced, traced, traced, untraced, ...
  std::vector<double> bringups;
  std::vector<Pass> plain;
  std::vector<Pass> traced;
  std::vector<obs::AttributionReport> attributions;
  TraceLoss loss;
  FrontDoorTotals door;
  const auto t_run = Clock::now();
  for (int k = 0;; ++k) {
    if (secs(t_run, Clock::now()) >= config.seconds && plain.size() >= 2 &&
        (!config.trace || traced.size() >= 2)) {
      break;
    }
    const auto t0 = Clock::now();
    auto fleet = bring_up(models, specs);
    bringups.push_back(secs(t0, Clock::now()));
    if (config.trace && (k % 4 == 1 || k % 4 == 2)) {
      TraceSession session;
      traced.push_back(drive(*fleet, tenants, rng));
      obs::TraceCapture capture;
      capture.dump = obs::TraceRecorder::instance().snapshot();
      capture.node_origin_us = fleet->fabric.node_origin_us;
      loss.add(capture.dump);
      attributions.push_back(
          obs::attribute_critical_paths(obs::merge_capture(capture)));
    } else {
      plain.push_back(drive(*fleet, tenants, rng));
      door.add(*fleet, plain.back());
    }
  }
  // More bring-ups (each torn down at once) until the median is steady.
  const auto tb = Clock::now();
  while (more_setups(bringups.size(), secs(tb, Clock::now()))) {
    const auto t0 = Clock::now();
    (void)bring_up(models, specs);
    bringups.push_back(secs(t0, Clock::now()));
  }
  const double setup_s = median(plan_walls) + median(bringups);
  report.note("set-up: planning median %.4f s, fleet bring-up median %.4f s; "
              "edgenet plan %d volumes, predicted %.2f IPS",
              median(plan_walls), median(bringups),
              static_cast<int>(tenants[0].setup.strategy.volumes.size()),
              tenants[0].setup.predicted_ips);
  report.notes.push_back("edgenet strategy: " +
                         strategy_text(tenants[0].setup.strategy));

  for (const auto* passes : {&plain, &traced}) {
    for (const auto& pass : *passes) {
      const auto n = static_cast<std::int64_t>(pass.frames.size()) +
                     pass.warmup_attempted;
      report.attempted += n;
      report.failed += n - pass.delivered - pass.warmup_delivered;
      if (pass.wrong > 0) report.correct = false;
    }
  }
  for (int p = 0; p < 3; ++p) {
    const auto v = lateness(plain, p);
    report.note("generator lateness, phase %d: p50 %.3f ms, p90 %.3f ms, "
                "max %.3f ms",
                p, percentile(v, 0.5), percentile(v, 0.9),
                v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()));
  }

  if (!config.trace) {
    const DoorPhase low(plain, 0), mid(plain, 1), high(plain, 2);
    const Phase phases[3] = {low.phase(), mid.phase(), high.phase()};
    // Goodput: bit-exact frames over the time the phases took.
    const double span = low.duration_s + mid.duration_s + high.duration_s;
    const double delivered = low.delivered + mid.delivered + high.delivered;
    e2e_metrics(report, span > 0 ? delivered / span : 0.0, setup_s, phases);
    return report;
  }

  LayerFigures f;
  const auto& edge = tenants[0].setup;
  for (const auto& t : tenants) f.core_plan_ms += t.setup.plan_ms;
  f.core_plan_predicted_ms = edge.plan_predicted_ms;
  f.sim_predicted_ips = edge.predicted_ips;
  // The fleet's edgenet capacity: high-phase goodput of edgenet cameras.
  const double capacity = DoorPhase(plain, 2, true).ips();
  const double traced_capacity = DoorPhase(traced, 2, true).ips();
  f.measured_ips = capacity;
  door.fill(f);
  f.attribution = summarize(attributions);
  auto below = lateness(plain, 0);
  const auto mid = lateness(plain, 1);
  below.insert(below.end(), mid.begin(), mid.end());
  f.gen_lateness_ms = percentile(below, 0.9);
  f.trace_overhead = capacity > 0 ? 1.0 - traced_capacity / capacity : 0.0;
  f.events_dropped_frac = loss.dropped_frac();
  report.note("edgenet capacity (high-phase goodput): untraced %.3f IPS, "
              "traced %.3f IPS; %llu events kept, %llu dropped",
              capacity, traced_capacity,
              static_cast<unsigned long long>(loss.events),
              static_cast<unsigned long long>(loss.dropped));
  ledger_metrics(report, time_parts(tenants[0].model, edge.strategy,
                                    tenants[0].weights,
                                    tenants[0].pool.inputs.front(),
                                    cnn::ExecContext{}, *edge.profile, 5));
  layer_metrics(report, f);
  return report;
}

}  // namespace pb
