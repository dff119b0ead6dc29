// Traced replay of one sample through the simulator's public calls.
//
// Replayer re-executes what core::Worker::run does for one sample, but
// from outside the library: it drives each CompiledModel::cam_layer(i)'s
// ContextGenerator, weight contexts, bias and hash length through a
// DynamicCam built from cam_config() and a PostProcessingUnit, and runs the
// non-CAM layers through Layer::infer. Every call (or run of consecutive
// calls to the same function) is timed as one span in a SpanLog. The
// replayed logits must equal the engine's bitwise; that equality is what
// makes the replay's stage times stand for the engine's.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "cam/dynamic_cam.hpp"
#include "core/compiled_model.hpp"
#include "core/postproc.hpp"
#include "nn/tensor.hpp"
#include "span_log.hpp"

namespace perfbench {

/// Span names of the replay, one per timed public call.
inline constexpr const char* kSpanSample = "sample";
inline constexpr const char* kSpanLayer = "layer";
inline constexpr const char* kSpanHash = "context.hash";
inline constexpr const char* kSpanWrite = "cam.write";
inline constexpr const char* kSpanSearch = "cam.search";
inline constexpr const char* kSpanPostproc = "postproc";
inline constexpr const char* kSpanPeripheral = "nn.peripheral";

/// Work counts of the replayed samples (sums over samples).
struct ReplayCounts {
  std::uint64_t proj_macs = 0;     // hash GEMM: patches x n x k per layer
  std::uint64_t searches = 0;      // DynamicCam::search_flat calls
  std::uint64_t rows_written = 0;  // DynamicCam::write_row calls
  std::uint64_t dots = 0;          // finish_dot_product calls
};

class Replayer {
 public:
  /// `compiled` must outlive the replayer.
  explicit Replayer(const deepcam::core::CompiledModel& compiled);

  /// Replays one batch-1 input; records spans into `log` (nullptr = untimed)
  /// tagged with `sample`. `skip_node` names a graph node whose computation
  /// is dropped (its input passes through unchanged) — a deliberately broken
  /// replay for testing the equality check; npos replays faithfully.
  deepcam::nn::Tensor run(
      const deepcam::nn::Tensor& input, std::uint32_t sample, SpanLog* log,
      std::size_t skip_node = std::numeric_limits<std::size_t>::max());

  const ReplayCounts& counts() const { return counts_; }

 private:
  /// CAM write/search/postproc passes of CAM layer `cam_idx` over act_ctx_;
  /// fills flat_ as [kernel][patch].
  void cam_passes(std::size_t cam_idx, std::uint32_t sample,
                  std::uint32_t node, SpanLog* log);

  const deepcam::core::CompiledModel* compiled_;
  deepcam::cam::DynamicCam cam_;
  deepcam::core::PostProcessingUnit postproc_;
  deepcam::core::ContextBatch act_ctx_;
  deepcam::cam::DynamicCam::FlatSearchResult search_buf_;
  std::vector<double> flat_;
  ReplayCounts counts_;
};

/// True when every logit of `a` equals the one of `b` bit for bit.
bool bitwise_equal(const deepcam::nn::Tensor& a, const deepcam::nn::Tensor& b);

}  // namespace perfbench
