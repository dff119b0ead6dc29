#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "codelet/codelet.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/compiled_model.hpp"
#include "core/engine.hpp"
#include "load.hpp"
#include "nn/model.hpp"
#include "nn/topologies.hpp"
#include "obs/trace.hpp"
#include "plan/cost_model.hpp"
#include "plan/geometry.hpp"
#include "plan/plan_cache.hpp"
#include "plan/planner.hpp"
#include "replay.hpp"
#include "serve/server.hpp"
#include "sim/backend.hpp"
#include "span_log.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

namespace core = deepcam::core;
namespace nn = deepcam::nn;
namespace plan = deepcam::plan;
namespace serve = deepcam::serve;
using SteadyClock = std::chrono::steady_clock;

double elapsed_s(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

// ---- workloads -----------------------------------------------------------

/// Weights are fixed; --seed varies only the inputs and arrival schedules,
/// so simulated cost and plans are the same for every seed.
constexpr std::uint64_t kModelSeed = 1;

struct Workload {
  const char* name;
  const char* topology;
  bool serve;  // open-loop serving; otherwise an offline closed loop
  /// Hash length of each tier (one engine or session per tier); 0 = per
  /// layer, chosen by a cold guided plan during set-up.
  std::vector<std::size_t> tier_bits;
  std::size_t batch;             // offline: samples per run_batch call
  std::size_t pool;              // distinct inputs drawn from the seed
  std::size_t fidelity_samples;  // fixed probe inputs of sim and fidelity
  std::size_t trace_samples;     // replayed samples per tier
  /// serve: nominal offered rate (about half of saturation on a 4-vCPU
  /// host); offline: rate of the traced run's serving phase.
  double nominal_rps;
  std::vector<double> ladder;  // serve: fixed offered rates for slo_rps
  double latency_limit_ms;     // serve: p99 limit for slo_rps
  std::size_t setup_repeats;
};

// Why each workload exists:
// - lenet5-k256: short contexts (n <= 256), so postproc per dot product and
//   per-call overheads are a large share of a sample; the host baseline. It
//   bypasses the planner and the serving tier.
// - vgg11-vhl: the paper's VHL flow; contexts reach n = 4608 at k = 1024, so
//   the projection GEMM dominates, and BN/ReLU/pool layers are present.
//   Set-up includes the cold plan.
// - serve-lenet5-2tier: the same kernels in micro-batches of 1-8 with idle
//   gaps and two hash lengths interleaved, so queueing, batching and
//   dispatch show in the tail. The rates are absolute (not derived from the
//   host), so two commits get the same offered load.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {.name = "lenet5-k256",
       .topology = "lenet5",
       .serve = false,
       .tier_bits = {256},
       .batch = 64,
       .pool = 256,
       .fidelity_samples = 256,
       .trace_samples = 32,
       .nominal_rps = 1000.0,
       .ladder = {},
       .latency_limit_ms = 0.0,
       .setup_repeats = 7},
      {.name = "vgg11-vhl",
       .topology = "vgg11",
       .serve = false,
       .tier_bits = {0},
       .batch = 4,
       .pool = 64,
       .fidelity_samples = 32,
       .trace_samples = 4,
       .nominal_rps = 30.0,
       .ladder = {},
       .latency_limit_ms = 0.0,
       .setup_repeats = 3},
      {.name = "serve-lenet5-2tier",
       .topology = "lenet5",
       .serve = true,
       .tier_bits = {1024, 256},
       .batch = 0,
       .pool = 256,
       .fidelity_samples = 256,
       .trace_samples = 16,
       .nominal_rps = 1500.0,
       .ladder = {1000.0, 1500.0, 2000.0, 2500.0, 3000.0},
       .latency_limit_ms = 20.0,
       .setup_repeats = 7},
  };
  return kWorkloads;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return w;
  throw deepcam::Error("unknown workload: " + name);
}

/// The VHL planning budget of specs/plan_lenet.json: cycles objective,
/// batch 8, rows and dataflow searched, 2 probes, rel-L2 budget 0.5.
plan::PlannerConfig vhl_planner_config() {
  plan::PlannerConfig cfg;
  cfg.objective = plan::Objective::kCycles;
  cfg.batch = 8;
  cfg.max_rel_error = 0.5;
  cfg.probes = 2;
  return cfg;
}

// ---- statistics ----------------------------------------------------------

/// Nearest-rank percentile (q in [0,1]); +inf entries sort last.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// Interquartile range over the median (0 for fewer than two values).
double spread(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = median(v);
  if (m == 0.0) return 0.0;
  return (percentile(v, 0.75) - percentile(v, 0.25)) / std::abs(m);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---- set-up ---------------------------------------------------------------

struct Deployment {
  std::unique_ptr<nn::Model> model;
  nn::Shape shape{};
  std::vector<std::shared_ptr<const core::CompiledModel>> tiers;
  std::vector<std::string> sessions;  // one per tier
  std::unique_ptr<core::InferenceEngine> engine;  // offline: tier 0
  std::unique_ptr<serve::Server> server;          // serve workload
  double compile_s = 0.0;  // CompiledModel constructions (weight hashing)

  core::InferenceEngine& tier_engine(std::size_t t) {
    return server ? server->sessions().engine(t) : *engine;
  }
};

std::unique_ptr<serve::Server> start_server(
    const std::vector<std::shared_ptr<const core::CompiledModel>>& tiers,
    const std::vector<std::string>& sessions, std::size_t engine_threads) {
  serve::ServerConfig cfg;
  cfg.num_workers = 2;
  cfg.queue_capacity = 1 << 16;  // never refuse: overload shows as backlog
  cfg.batch.max_batch_size = 8;
  cfg.batch.max_queue_delay = std::chrono::microseconds(2000);
  auto server = std::make_unique<serve::Server>(cfg);
  for (std::size_t t = 0; t < tiers.size(); ++t)
    server->sessions().add_session(sessions[t], tiers[t], engine_threads);
  server->start();
  return server;
}

Deployment deploy(const Workload& w, std::size_t engine_threads) {
  Deployment d;
  d.model = nn::make_model(w.topology, kModelSeed);
  d.shape = nn::input_spec_for(w.topology).shape();
  for (std::size_t bits : w.tier_bits) {
    core::DeepCamConfig cfg;
    if (bits == 0) {
      const plan::PlannerConfig pc = vhl_planner_config();
      const plan::Planner planner(*d.model, d.shape);
      plan::PlanCache cache;
      const plan::Plan p = cache.get_or_plan(
          plan::plan_cache_key(planner.cost_model().geometry().digest(), pc),
          [&] { return planner.plan(pc); });
      cfg.layer_hash_bits = p.hash_bits;
      d.sessions.push_back("vhl");
    } else {
      cfg.default_hash_bits = bits;
      d.sessions.push_back("k" + std::to_string(bits));
    }
    const SteadyClock::time_point t0 = SteadyClock::now();
    d.tiers.push_back(
        std::make_shared<const core::CompiledModel>(*d.model, cfg));
    d.compile_s += elapsed_s(t0);
  }
  if (w.serve)
    d.server = start_server(d.tiers, d.sessions, engine_threads);
  else
    d.engine = std::make_unique<core::InferenceEngine>(d.tiers[0],
                                                       engine_threads);
  return d;
}

// ---- result assembly ------------------------------------------------------

class Collector {
 public:
  explicit Collector(RunResult& res) : res_(res) {}

  /// A metric declared in end_to_end_metrics() / per_layer_metrics();
  /// `repeats` are the measurements its value summarizes.
  void metric(const std::string& name, double value,
              const std::vector<double>& repeats = {}) {
    const char* unit = nullptr;
    for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()})
      for (const MetricDef& d : *defs)
        if (name == d.name) unit = d.unit;
    DEEPCAM_CHECK_MSG(unit != nullptr, "undeclared metric " + name);
    res_.metrics.push_back(make(name, value, unit, repeats));
  }
  /// A value for the run record only.
  void extra(const std::string& name, double value, const char* unit) {
    res_.extra.push_back(make(name, value, unit, {}));
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    res_.checks.push_back(Check{name, ok, detail});
  }

 private:
  static Metric make(const std::string& name, double value, const char* unit,
                     const std::vector<double>& repeats) {
    Metric m;
    m.name = name;
    const std::size_t dot = name.find('.');
    m.layer = dot == std::string::npos ? "end_to_end" : name.substr(0, dot);
    m.value = value;
    m.unit = unit;
    m.repeats = std::max<std::size_t>(1, repeats.size());
    m.spread = spread(repeats);
    return m;
  }
  RunResult& res_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- shared phases --------------------------------------------------------

/// Simulated cost and FP32 fidelity of each tier, plus the cost-model
/// check. They run on a fixed probe set, not on the seeded inputs, so they
/// repeat exactly across runs and seeds.
void sim_and_fidelity(const Workload& w, Deployment& d, Collector& out,
                      RunResult& res) {
  const std::vector<nn::Tensor> inputs = deepcam::sim::make_probe_batch(
      d.shape, w.fidelity_samples, deepcam::sim::kProbeSeed);
  double cycles = 0.0, energy_nj = 0.0, rel_l2 = 0.0, top1 = 0.0;
  bool estimates_exact = true;
  std::string detail;
  std::vector<nn::Tensor> reference;
  reference.reserve(inputs.size());
  for (const nn::Tensor& x : inputs) reference.push_back(d.model->infer(x));
  const plan::CostModel cost(plan::extract_geometry(*d.model, d.shape));

  for (std::size_t t = 0; t < d.tiers.size(); ++t) {
    core::BatchReport rep;
    const std::vector<nn::Tensor> logits =
        d.tier_engine(t).run_batch(inputs, &rep);
    res.attempted += inputs.size();
    const double n = static_cast<double>(inputs.size());
    const double tier_cycles =
        static_cast<double>(rep.aggregate.total_cycles()) / n;
    const double tier_energy = rep.aggregate.total_energy() / n;
    cycles += tier_cycles;
    energy_nj += tier_energy * 1e9;

    // The comparison sim::check_estimator makes, on these inputs.
    const plan::CostEstimate est = cost.estimate(d.tiers[t]->config(), 1);
    estimates_exact =
        estimates_exact &&
        static_cast<double>(est.sample_cycles()) == tier_cycles &&
        std::abs(est.sample_energy() - tier_energy) <=
            1e-9 * std::abs(tier_energy);
    detail += d.sessions[t] + ": measured " + std::to_string(tier_cycles) +
              " cycles/sample, cost model " +
              std::to_string(est.sample_cycles()) + "; ";

    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const nn::Tensor& dc = logits[i];
      const nn::Tensor& ref = reference[i];
      double num = 0.0, den = 0.0;
      for (std::size_t j = 0; j < ref.numel(); ++j) {
        const double diff = static_cast<double>(dc[j]) - ref[j];
        num += diff * diff;
        den += static_cast<double>(ref[j]) * ref[j];
      }
      rel_l2 += std::sqrt(num / std::max(den, 1e-300));
      top1 += nn::argmax_class(dc) == nn::argmax_class(ref) ? 1.0 : 0.0;
    }
  }
  const double tiers = static_cast<double>(d.tiers.size());
  const double samples = tiers * static_cast<double>(inputs.size());
  out.metric("sim_cycles_per_sample", cycles / tiers);
  out.metric("sim_energy_nj_per_sample", energy_nj / tiers);
  out.metric("fidelity_rel_l2", rel_l2 / samples);
  out.extra("fidelity_top1", top1 / samples, "ratio");
  out.check("sim_equals_cost_model", estimates_exact, detail);
}

/// The serve.* and loadgen.* metrics of one open-loop phase.
void serve_layer_metrics(const OpenLoopResult& o, serve::Server& server,
                         Collector& out) {
  out.metric("serve.submit_us_p50", percentile(o.submit_us, 0.5));
  out.metric("serve.queue_wait_ms_p50", percentile(o.queue_ms, 0.5));
  out.metric("serve.queue_wait_ms_p99", percentile(o.queue_ms, 0.99));
  out.metric("serve.service_ms_p50", percentile(o.service_ms, 0.5));
  out.metric("serve.batch_size_mean", mean(o.batch_size));
  out.metric("serve.in_flight_max",
             static_cast<double>(server.summary().max_in_flight_batches));
  out.metric("loadgen.late_ms_p99", percentile(o.late_ms, 0.99));
}

void check_answers(const OpenLoopResult& o, const std::string& phase,
                   Collector& out, RunResult& res) {
  out.check(phase + ".answered_exactly_once",
            o.unanswered == 0 && o.answered_twice == 0,
            std::to_string(o.unanswered) + " unanswered, " +
                std::to_string(o.answered_twice) + " answered twice");
  out.check(phase + ".answers_equal_offline", o.wrong == 0,
            std::to_string(o.wrong) + " answers differ from the engine");
  res.attempted += o.attempted;
  res.failed += o.misses();
}

std::uint64_t phase_seed(std::uint64_t seed, std::uint64_t phase) {
  return seed * 0x9E3779B97F4A7C15ull + phase + 1;
}

/// Requests over `pool` to every tier, with the tier engines' logits as the
/// expected answers.
ServeTarget serve_target(Deployment& d, const std::vector<nn::Tensor>& pool) {
  ServeTarget target;
  target.sessions = d.sessions;
  target.pool = &pool;
  auto expected = std::make_shared<ExpectedLogits>();
  for (std::size_t t = 0; t < d.tiers.size(); ++t)
    expected->push_back(d.tier_engine(t).run_batch(pool));
  target.expected = std::move(expected);
  return target;
}

// ---- untraced run: end-to-end metrics ---------------------------------------

void offline_end_to_end(const Workload& w, const RunConfig& cfg, Deployment& d,
                        const std::vector<nn::Tensor>& pool, Collector& out,
                        RunResult& res) {
  std::vector<std::vector<nn::Tensor>> batches;
  for (std::size_t i = 0; i + w.batch <= pool.size(); i += w.batch)
    batches.emplace_back(
        pool.begin() + static_cast<std::ptrdiff_t>(i),
        pool.begin() + static_cast<std::ptrdiff_t>(i + w.batch));
  core::InferenceEngine& engine = *d.engine;
  const std::vector<nn::Tensor> warm = engine.run_batch(batches[0]);
  bool deterministic = true;

  // Closed loop of back-to-back run_batch calls, cut into equal windows.
  // Throughput is over the whole timed phase and latency percentiles are
  // over every call; the windows give the repeats and spread.
  constexpr std::size_t kWindows = 10;
  const double window_s = cfg.seconds / kWindows;
  std::vector<double> window_sps, call_ms;
  std::size_t next = 0, samples = 0;
  double timed_s = 0.0;
  for (std::size_t win = 0; win < kWindows; ++win) {
    const SteadyClock::time_point w0 = SteadyClock::now();
    std::size_t win_samples = 0;
    do {
      const std::size_t b = next++ % batches.size();
      const SteadyClock::time_point t0 = SteadyClock::now();
      const std::vector<nn::Tensor> y = engine.run_batch(batches[b]);
      call_ms.push_back(elapsed_s(t0) * 1e3);
      for (std::size_t i = 0; b == 0 && i < y.size(); ++i)
        deterministic = deterministic && bitwise_equal(y[i], warm[i]);
      win_samples += w.batch;
    } while (elapsed_s(w0) < window_s);
    const double win_s = elapsed_s(w0);
    window_sps.push_back(static_cast<double>(win_samples) / win_s);
    samples += win_samples;
    timed_s += win_s;
  }
  res.attempted += samples;
  out.metric("samples_per_s", static_cast<double>(samples) / timed_s,
             window_sps);
  out.metric("latency_ms_p50", percentile(call_ms, 0.5), call_ms);
  out.metric("latency_ms_p99", percentile(call_ms, 0.99), call_ms);
  out.extra("latency_samples", static_cast<double>(call_ms.size()), "count");

  out.check("engine_deterministic", deterministic,
            "timed-phase logits equal the warm-up batch's");
  sim_and_fidelity(w, d, out, res);
}

void serve_end_to_end(const Workload& w, const RunConfig& cfg, Deployment& d,
                      const std::vector<nn::Tensor>& pool, Collector& out,
                      RunResult& res) {
  const ServeTarget target = serve_target(d, pool);
  sim_and_fidelity(w, d, out, res);

  // Untimed warm-up at the nominal rate, so the first rung does not pay for
  // cold server threads and caches.
  check_answers(run_open_loop(*d.server, target, w.nominal_rps,
                              cfg.seconds * 0.04, phase_seed(cfg.seed, 99)),
                "warmup", out, res);

  // Fixed ladder, ascending. Every rung up to the nominal rate runs; above
  // it the ladder stops at the first rung that misses its limit, so an
  // overloaded rung's backlog stays short.
  double slo_rps = 0.0;
  bool all_met = true;
  for (std::size_t r = 0; r < w.ladder.size(); ++r) {
    const double rate = w.ladder[r];
    if (rate > w.nominal_rps && !all_met) break;
    const bool nominal = rate == w.nominal_rps;
    const double secs = cfg.seconds * (nominal ? 0.55 : 0.04);
    const OpenLoopResult o = run_open_loop(*d.server, target, rate, secs,
                                           phase_seed(cfg.seed, r));
    check_answers(o, "rung" + std::to_string(static_cast<int>(rate)), out,
                  res);
    const double p99 = percentile(o.latency_ms, 0.99);
    const bool met = o.misses() == 0 && p99 <= w.latency_limit_ms &&
                     static_cast<double>(o.backlog_at_end) <=
                         rate * w.latency_limit_ms / 1e3;
    all_met = all_met && met;
    if (all_met) slo_rps = rate;
    const std::string key = "ladder." + std::to_string(static_cast<int>(rate));
    out.extra(key + ".p99_ms", p99, "ms");
    out.extra(key + ".backlog_at_end", static_cast<double>(o.backlog_at_end),
              "count");
    if (!nominal) continue;

    // Latency percentiles are over every request of the nominal rung; its
    // 0.5 s windows (by due time) give the repeats and spread.
    const auto windows =
        std::max<std::size_t>(5, static_cast<std::size_t>(secs / 0.5));
    std::vector<std::vector<double>> win(windows);
    for (std::size_t i = 0; i < o.latency_ms.size(); ++i) {
      const auto k = std::min(
          windows - 1, static_cast<std::size_t>(o.due_s[i] / secs * windows));
      win[k].push_back(o.latency_ms[i]);
    }
    std::vector<double> p50s, p99s;
    for (const auto& v : win) {
      p50s.push_back(percentile(v, 0.5));
      p99s.push_back(percentile(v, 0.99));
    }
    out.metric("latency_ms_p50", percentile(o.latency_ms, 0.5), p50s);
    out.metric("latency_ms_p99", p99, p99s);
    out.extra("latency_samples", static_cast<double>(o.latency_ms.size()),
              "count");
  }
  out.extra("slo_rps", slo_rps, "1/s");
  out.extra("slo_latency_limit_ms", w.latency_limit_ms, "ms");

  // Saturation throughput: closed loop with eight full micro-batches per
  // session in flight.
  const ClosedLoopResult sat =
      run_closed_loop(*d.server, target, 8 * 8 * d.sessions.size(),
                      cfg.seconds * 0.25, phase_seed(cfg.seed, 100));
  res.attempted += sat.attempted;
  res.failed += sat.misses;
  out.metric("samples_per_s", sat.samples_per_s, sat.window_sps);
  out.check("saturation.answers_equal_offline", sat.misses == 0,
            std::to_string(sat.misses) + " misses in the closed loop");
}

// ---- traced run: per-layer metrics -----------------------------------------

/// Replays `inputs` through every tier (one untimed pass, then kPasses
/// timed passes), checks the replay against the engine, and reports the
/// replay and engine per-layer metrics. Writes the span log and the layer x
/// stage table when `out_base` is non-empty.
void replay_metrics(Deployment& d, const std::vector<nn::Tensor>& inputs,
                    const std::string& out_base, Collector& out,
                    RunResult& res) {
  constexpr std::size_t kPasses = 5;
  SpanLog log;
  ReplayCounts counts;
  std::size_t replayed = 0;
  bool equal = true;
  std::vector<double> engine_us(kPasses, 0.0);  // mean over tiers
  const auto n = static_cast<std::uint32_t>(inputs.size());
  const auto tiers = static_cast<std::uint32_t>(d.tiers.size());

  for (std::uint32_t t = 0; t < tiers; ++t) {
    core::InferenceEngine& engine = d.tier_engine(t);
    const std::vector<nn::Tensor> ref = engine.run_batch(inputs);
    Replayer rep(*d.tiers[t]);
    for (std::uint32_t s = 0; s < n; ++s)
      equal = equal && bitwise_equal(rep.run(inputs[s], 0, nullptr), ref[s]);
    // Each pass replays every sample and then times the engine on the same
    // inputs, so host drift moves both sides alike. Sample ids encode
    // (pass, tier, sample) so spans stay separable.
    for (std::uint32_t p = 0; p < kPasses; ++p) {
      for (std::uint32_t s = 0; s < n; ++s) {
        const nn::Tensor y = rep.run(inputs[s], (p * tiers + t) * n + s, &log);
        equal = equal && bitwise_equal(y, ref[s]);
      }
      const SteadyClock::time_point t0 = SteadyClock::now();
      engine.run_batch(inputs);
      engine_us[p] += elapsed_s(t0) * 1e6 / n / tiers;
    }
    replayed += (kPasses + 1) * n;
    const ReplayCounts& c = rep.counts();
    counts.proj_macs += c.proj_macs;
    counts.searches += c.searches;
    counts.rows_written += c.rows_written;
    counts.dots += c.dots;
  }
  res.attempted += replayed;
  out.check("replay_equals_engine", equal,
            "replayed logits equal InferenceEngine::run_batch bitwise");

  // µs per sample of each stage in each pass: the stage spans' self times
  // less the clock cost every span carries once; each metric is the median
  // pass. The sample spans keep their full duration (the replay's wall).
  const double clock_ns = SpanLog::empty_span_ns();
  const std::vector<SpanRec>& spans = log.spans();
  const std::vector<std::uint64_t> self = log.self_times_ns();
  const double pass_samples = static_cast<double>(tiers * n);
  std::vector<std::map<std::string, double>> pass_us(kPasses);
  std::map<std::pair<std::uint32_t, std::string>, std::pair<double, double>>
      table;  // (node, stage) -> (ns, calls), summed over all passes
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    auto& us = pass_us[s.sample / (tiers * n)];
    if (s.depth == 0) us[s.name] += s.duration_ns() * 1e-3 / pass_samples;
    if (s.depth != 2) continue;
    const double ns = std::max(0.0, static_cast<double>(self[i]) - clock_ns);
    us[s.name] += ns * 1e-3 / pass_samples;
    auto& cell = table[{s.layer, s.name}];
    cell.first += ns;
    cell.second += s.calls;
  }
  auto stage = [&](const char* name) {
    std::vector<double> v;
    for (auto& us : pass_us) v.push_back(us[name]);
    return v;
  };
  const double per = static_cast<double>(replayed);
  const std::vector<double> hash = stage(kSpanHash), write = stage(kSpanWrite),
                            search = stage(kSpanSearch),
                            post = stage(kSpanPostproc),
                            periph = stage(kSpanPeripheral);
  const double macs = static_cast<double>(counts.proj_macs) / per;
  const double dots = static_cast<double>(counts.dots) / per;
  out.metric("context.hash_us", median(hash), hash);
  out.metric("context.proj_macs", macs);
  out.metric("context.proj_gmac_per_s", macs / median(hash) * 1e-3);
  out.metric("cam.write_us", median(write), write);
  out.metric("cam.search_us", median(search), search);
  out.metric("cam.searches", static_cast<double>(counts.searches) / per);
  out.metric("cam.rows_written",
             static_cast<double>(counts.rows_written) / per);
  out.metric("postproc.us", median(post), post);
  out.metric("postproc.dots", dots);
  out.metric("postproc.ns_per_dot", median(post) * 1e3 / dots);
  out.metric("nn.peripheral_us", median(periph), periph);

  const double sample_us = median(engine_us);
  const double staged = median(hash) + median(write) + median(search) +
                        median(post) + median(periph);
  const double unattributed = 1.0 - staged / sample_us;
  out.metric("engine.sample_us", sample_us, engine_us);
  out.metric("engine.unattributed_frac", unattributed);
  // The replay and the engine are timed apart, each to about 1%, so the
  // fraction reads slightly below zero when the engine adds little beyond
  // the stages. Further below, the replay's stage times overstate the
  // engine's.
  out.check("unattributed_frac_in_range",
            unattributed > -0.05 && unattributed < 1.0,
            "replay stages cover " + std::to_string(staged / sample_us) +
                " of engine.sample_us");
  out.extra("replay.sample_us", median(stage(kSpanSample)), "us");
  out.extra("replay.span_clock_ns", clock_ns, "ns");

  if (out_base.empty()) return;
  log.write_csv(out_base + ".spans.csv");
  std::ofstream csv(out_base + ".layers.csv");
  DEEPCAM_CHECK_MSG(csv.good(), "cannot write " + out_base + ".layers.csv");
  csv << "node,layer,stage,us_per_sample,calls_per_sample\n";
  const double samples = static_cast<double>(kPasses * tiers * n);
  for (const auto& [key, cell] : table)
    csv << key.first << ',' << d.model->layer(key.first).name() << ','
        << key.second << ',' << cell.first * 1e-3 / samples << ','
        << cell.second / samples << '\n';
}

/// Host time of the FP32 reference (Model::infer): the median of three
/// passes of at least 20 ms each.
void fp32_metric(const Deployment& d, const std::vector<nn::Tensor>& inputs,
                 Collector& out) {
  std::vector<double> fp32_us;
  for (std::size_t p = 0; p < 3; ++p) {
    const SteadyClock::time_point t0 = SteadyClock::now();
    std::size_t runs = 0;
    do {
      for (const nn::Tensor& x : inputs) d.model->infer(x);
      runs += inputs.size();
    } while (elapsed_s(t0) < 0.02);
    fp32_us.push_back(elapsed_s(t0) * 1e6 / static_cast<double>(runs));
  }
  out.metric("nn.fp32_us", median(fp32_us), fp32_us);
}

/// Cost of kFull tracing: throughput of run_batch with the TraceRecorder
/// armed at kFull against off, alternating, median of each.
void tracing_overhead(Deployment& d, const std::vector<nn::Tensor>& inputs,
                      double seconds, Collector& out) {
  auto& rec = deepcam::obs::TraceRecorder::instance();
  core::InferenceEngine& engine = d.tier_engine(0);
  constexpr std::size_t kRounds = 5;
  const double slice = seconds / (2 * kRounds);
  std::vector<double> off, full;
  auto measure = [&] {
    const SteadyClock::time_point t0 = SteadyClock::now();
    std::size_t samples = 0;
    do {
      engine.run_batch(inputs);
      samples += inputs.size();
    } while (elapsed_s(t0) < slice);
    return static_cast<double>(samples) / elapsed_s(t0);
  };
  for (std::size_t r = 0; r < kRounds; ++r) {
    off.push_back(measure());
    rec.set_level(deepcam::obs::TraceLevel::kFull);
    full.push_back(measure());
    rec.set_level(deepcam::obs::TraceLevel::kOff);
    rec.clear();
  }
  out.metric("obs.kfull_overhead_frac", 1.0 - median(full) / median(off));
}

void plan_metrics(Deployment& d, Collector& out) {
  const plan::PlannerConfig pc = vhl_planner_config();
  const plan::Planner planner(*d.model, d.shape);
  const std::string key =
      plan::plan_cache_key(planner.cost_model().geometry().digest(), pc);
  plan::PlanCache cache;
  const SteadyClock::time_point t0 = SteadyClock::now();
  const plan::Plan cold =
      cache.get_or_plan(key, [&] { return planner.plan(pc); });
  out.metric("plan.cold_s", elapsed_s(t0));
  // Warm lookups take well under a microsecond: time groups of them.
  constexpr std::size_t kGroups = 21, kLookups = 200;
  std::vector<double> warm_us;
  for (std::size_t g = 0; g < kGroups; ++g) {
    const SteadyClock::time_point t1 = SteadyClock::now();
    bool all_hit = true;
    for (std::size_t i = 0; i < kLookups; ++i) {
      bool hit = false;
      cache.get_or_plan(key, [&] { return planner.plan(pc); }, &hit);
      all_hit = all_hit && hit;
    }
    warm_us.push_back(elapsed_s(t1) * 1e6 / kLookups);
    DEEPCAM_CHECK_MSG(all_hit, "warm plan lookup missed the cache");
  }
  out.metric("plan.warm_us", median(warm_us), warm_us);
  out.metric("plan.configs_evaluated",
             static_cast<double>(cold.configs_evaluated));
}

void traced_run(const Workload& w, const RunConfig& cfg, Deployment& d,
                const std::vector<nn::Tensor>& pool,
                const std::vector<double>& compile_s,
                const std::string& out_base, Collector& out, RunResult& res) {
  const std::vector<nn::Tensor> inputs(
      pool.begin(),
      pool.begin() + static_cast<std::ptrdiff_t>(w.trace_samples));
  replay_metrics(d, inputs, out_base, out, res);
  fp32_metric(d, inputs, out);
  out.metric("compile.weight_hash_s", median(compile_s), compile_s);
  plan_metrics(d, out);
  tracing_overhead(d, inputs, cfg.seconds * 0.3, out);

  // Serving phase. Offline workloads serve their own compiled model from a
  // one-session server, so every workload reports the serve.* metrics.
  const ServeTarget target = serve_target(d, inputs);
  std::unique_ptr<serve::Server> own;
  serve::Server* server = d.server.get();
  if (server == nullptr) {
    own = start_server(d.tiers, d.sessions, 1);
    server = own.get();
  }
  const OpenLoopResult o = run_open_loop(*server, target, w.nominal_rps,
                                         cfg.seconds * 0.3,
                                         phase_seed(cfg.seed, 200));
  check_answers(o, "serve", out, res);
  serve_layer_metrics(o, *server, out);
}

// ---- output helpers --------------------------------------------------------

std::string host_name() {
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) != 0) return "unknown";
  return buf;
}

void metric_json(deepcam::JsonWriter& j, const Metric& m) {
  j.begin_object();
  j.kv("name", m.name);
  j.kv("layer", m.layer);
  j.kv("value", m.value);
  j.kv("unit", m.unit);
  j.kv("repeats", static_cast<std::uint64_t>(m.repeats));
  j.kv("spread", m.spread);
  j.end_object();
}

}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"samples_per_s", "1/s"},
      {"latency_ms_p50", "ms"},
      {"latency_ms_p99", "ms"},
      {"peak_rss_mb", "MB"},
      {"sim_cycles_per_sample", "cycles"},
      {"sim_energy_nj_per_sample", "nJ"},
      {"fidelity_rel_l2", "ratio"},
  };
  return kDefs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"context.hash_us", "us"},
      {"context.proj_macs", "count"},
      {"context.proj_gmac_per_s", "GMAC/s"},
      {"cam.write_us", "us"},
      {"cam.search_us", "us"},
      {"cam.searches", "count"},
      {"cam.rows_written", "count"},
      {"postproc.us", "us"},
      {"postproc.dots", "count"},
      {"postproc.ns_per_dot", "ns"},
      {"nn.peripheral_us", "us"},
      {"nn.fp32_us", "us"},
      {"engine.sample_us", "us"},
      {"engine.unattributed_frac", "ratio"},
      {"compile.weight_hash_s", "s"},
      {"plan.cold_s", "s"},
      {"plan.warm_us", "us"},
      {"plan.configs_evaluated", "count"},
      {"serve.submit_us_p50", "us"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.queue_wait_ms_p99", "ms"},
      {"serve.service_ms_p50", "ms"},
      {"serve.batch_size_mean", "count"},
      {"serve.in_flight_max", "count"},
      {"loadgen.late_ms_p99", "ms"},
      {"obs.kfull_overhead_frac", "ratio"},
  };
  return kDefs;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : workloads()) names.push_back(w.name);
  return names;
}

bool RunResult::correct() const {
  for (const Check& c : checks)
    if (!c.ok) return false;
  return !checks.empty();
}

const Metric* RunResult::find(const std::string& name) const {
  for (const auto* list : {&metrics, &extra})
    for (const Metric& m : *list)
      if (m.name == name) return &m;
  return nullptr;
}

RunResult run_workload(const RunConfig& cfg) {
  const Workload& w = find_workload(cfg.workload);
  DEEPCAM_CHECK_MSG(cfg.seconds > 0.0, "--seconds must be positive");
  const std::size_t threads = cfg.engine_threads != 0 ? cfg.engine_threads : 1;

  RunResult res;
  Collector out(res);

  // Set-up, repeated; the last deployment is kept for the measurements.
  std::vector<double> setup_s, compile_s;
  Deployment d;
  for (std::size_t r = 0; r < w.setup_repeats; ++r) {
    d = Deployment{};
    const SteadyClock::time_point t0 = SteadyClock::now();
    d = deploy(w, threads);
    setup_s.push_back(elapsed_s(t0));
    compile_s.push_back(d.compile_s);
  }
  const std::vector<nn::Tensor> pool =
      deepcam::sim::make_probe_batch(d.shape, w.pool, cfg.seed);

  if (!cfg.trace) {
    out.metric("setup_s", median(setup_s), setup_s);
    if (w.serve)
      serve_end_to_end(w, cfg, d, pool, out, res);
    else
      offline_end_to_end(w, cfg, d, pool, out, res);
    out.metric("peak_rss_mb", peak_rss_mb());
    out.extra("failed_frac",
              res.attempted == 0 ? 0.0
                                 : static_cast<double>(res.failed) /
                                       static_cast<double>(res.attempted),
              "ratio");
  } else {
    traced_run(w, cfg, d, pool, compile_s, artifact_base(cfg), out, res);
  }

  // Report in declaration order.
  const auto& defs = cfg.trace ? per_layer_metrics() : end_to_end_metrics();
  std::vector<Metric> ordered;
  for (const MetricDef& def : defs) {
    const Metric* m = nullptr;
    for (const Metric& x : res.metrics)
      if (x.name == def.name) m = &x;
    DEEPCAM_CHECK_MSG(m != nullptr, std::string("metric not measured: ") +
                                        def.name);
    ordered.push_back(*m);
  }
  res.metrics = std::move(ordered);
  return res;
}

std::string artifact_base(const RunConfig& cfg) {
  if (cfg.out_dir.empty()) return "";
  return cfg.out_dir + "/" + cfg.workload + "-seed" +
         std::to_string(cfg.seed) + "-trace" + (cfg.trace ? "1" : "0");
}

std::string record_json(const RunConfig& cfg, const RunResult& res) {
  deepcam::JsonWriter j;
  j.begin_object();
  j.kv("schema", "deepcam-bench-record/1");
  j.kv("workload", cfg.workload);
  j.kv("seed", cfg.seed);
  j.kv("seconds", cfg.seconds);
  j.kv("trace", cfg.trace);
  j.kv("host", host_name());
  j.kv("nproc",
       static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  j.kv("build_type", PERFBENCH_BUILD_TYPE);
  j.kv("isa", deepcam::codelet::isa_name(deepcam::codelet::active_isa()));
  j.kv("commit", cfg.commit);
  j.kv("source_digest", cfg.source_digest);
  j.kv("correct", res.correct());
  j.kv("attempted", res.attempted);
  j.kv("failed", res.failed);
  j.key("checks").begin_array();
  for (const Check& c : res.checks) {
    j.begin_object();
    j.kv("name", c.name);
    j.kv("ok", c.ok);
    j.kv("detail", c.detail);
    j.end_object();
  }
  j.end_array();
  j.key("metrics").begin_array();
  for (const auto* list : {&res.metrics, &res.extra})
    for (const Metric& m : *list) metric_json(j, m);
  j.end_array();
  j.end_object();
  return j.str();
}

std::string result_line(const RunResult& res) {
  deepcam::JsonWriter j;
  j.begin_object();
  j.kv("correct", res.correct());
  j.kv("attempted", res.attempted);
  j.kv("failed", res.failed);
  j.key("metrics").begin_object();
  for (const Metric& m : res.metrics) {
    j.key(m.name).begin_object();
    j.kv("value", m.value);
    j.kv("unit", m.unit);
    j.end_object();
  }
  j.end_object();
  j.end_object();
  return j.str();
}

}  // namespace perfbench
