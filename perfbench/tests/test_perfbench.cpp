// Tests of the benchmark itself: its printed metrics match BENCHMARK.json,
// its exact metrics repeat exactly, and its replay check catches a broken
// replay.
#include <gtest/gtest.h>

#include <set>

#include "bench.hpp"
#include "common/json.hpp"
#include "core/compiled_model.hpp"
#include "core/engine.hpp"
#include "nn/topologies.hpp"
#include "replay.hpp"
#include "sim/backend.hpp"
#include "span_log.hpp"

namespace perfbench {
namespace {

using Units = std::vector<std::pair<std::string, std::string>>;

Units declared(const deepcam::JsonValue& doc, const char* key) {
  Units out;
  for (const auto& m : doc.at(key).items())
    out.emplace_back(m.at("name").as_string(), m.at("unit").as_string());
  return out;
}

Units defined(const std::vector<MetricDef>& defs) {
  Units out;
  for (const MetricDef& d : defs) out.emplace_back(d.name, d.unit);
  return out;
}

RunConfig quick(const std::string& workload, bool trace) {
  RunConfig cfg;
  cfg.workload = workload;
  cfg.seed = 3;
  cfg.seconds = 0.5;
  cfg.trace = trace;
  return cfg;
}

TEST(BenchmarkJson, DeclaresWhatTheBenchmarkDefines) {
  const deepcam::JsonValue doc = deepcam::parse_json_file(PERFBENCH_JSON);
  EXPECT_EQ(declared(doc, "end_to_end"), defined(end_to_end_metrics()));
  EXPECT_EQ(declared(doc, "per_layer"), defined(per_layer_metrics()));
  std::vector<std::string> names;
  for (const auto& w : doc.at("workloads").items())
    names.push_back(w.at("name").as_string());
  EXPECT_EQ(names, workload_names());
}

TEST(BenchmarkJson, EveryWorkloadPrintsEveryMetricOfItsMode) {
  const deepcam::JsonValue doc = deepcam::parse_json_file(PERFBENCH_JSON);
  for (const std::string& w : workload_names())
    for (bool trace : {false, true}) {
      SCOPED_TRACE(w + (trace ? " trace" : ""));
      const RunResult res = run_workload(quick(w, trace));
      EXPECT_TRUE(res.correct());
      EXPECT_GE(res.attempted, 1u);
      const deepcam::JsonValue line = deepcam::parse_json(result_line(res));
      Units printed;
      for (const auto& [name, v] : line.at("metrics").members()) {
        printed.emplace_back(name, v.at("unit").as_string());
        EXPECT_TRUE(v.at("value").is_number()) << name;
      }
      EXPECT_EQ(printed, declared(doc, trace ? "per_layer" : "end_to_end"));
    }
}

TEST(ExactMetrics, RepeatAcrossRunsAndEngineThreads) {
  const std::vector<std::string> exact = {
      "sim_cycles_per_sample", "sim_energy_nj_per_sample", "fidelity_rel_l2",
      "fidelity_top1"};
  RunConfig cfg = quick("lenet5-k256", false);
  const RunResult a = run_workload(cfg);
  const RunResult b = run_workload(cfg);
  cfg.engine_threads = 2;
  const RunResult c = run_workload(cfg);
  for (const std::string& name : exact) {
    SCOPED_TRACE(name);
    ASSERT_NE(a.find(name), nullptr);
    EXPECT_EQ(a.find(name)->value, b.find(name)->value);
    EXPECT_EQ(a.find(name)->value, c.find(name)->value);
  }
}

TEST(Replay, EqualsEngineAndFailsWhenALayerIsSkipped) {
  const auto model = deepcam::nn::make_model("lenet5", 1);
  deepcam::core::DeepCamConfig cfg;
  cfg.default_hash_bits = 256;
  auto compiled =
      std::make_shared<const deepcam::core::CompiledModel>(*model, cfg);
  deepcam::core::InferenceEngine engine(compiled, 1);
  const auto inputs = deepcam::sim::make_probe_batch(
      deepcam::nn::input_spec_for("lenet5").shape(), 2, 5);
  const auto ref = engine.run_batch(inputs);

  Replayer faithful(*compiled);
  for (std::size_t s = 0; s < inputs.size(); ++s)
    EXPECT_TRUE(bitwise_equal(faithful.run(inputs[s], 0, nullptr), ref[s]));

  // Flatten only reshapes, so dropping it leaves the logits unchanged;
  // dropping any other layer must break the equality (or the replay).
  for (std::size_t node = 0; node < model->node_count(); ++node) {
    if (model->layer(node).kind() == deepcam::nn::LayerKind::kFlatten)
      continue;
    SCOPED_TRACE(model->layer(node).name());
    Replayer broken(*compiled);
    bool equal = false;
    try {
      equal = bitwise_equal(broken.run(inputs[0], 0, nullptr, node), ref[0]);
    } catch (const std::exception&) {
      equal = false;
    }
    EXPECT_FALSE(equal);
  }
}

TEST(SpanLog, SelfTimeSubtractsTheUnionOfChildren) {
  SpanLog log;
  log.add({"sample", 0, 100, 0, kNoLayer, 0, 1});
  log.add({"layer", 10, 60, 0, 0, 1, 1});
  log.add({"hash", 10, 30, 0, 0, 2, 1});
  log.add({"search", 30, 50, 0, 0, 2, 1});
  log.add({"layer", 60, 90, 0, 1, 1, 1});
  log.add({"sample", 200, 210, 1, kNoLayer, 0, 1});  // another sample
  const std::vector<std::uint64_t> self = log.self_times_ns();
  EXPECT_EQ(self, (std::vector<std::uint64_t>{20, 10, 20, 20, 30, 10}));
}

}  // namespace
}  // namespace perfbench
