#include "replay.hpp"

#include <algorithm>
#include <cstring>

#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pointwise.hpp"

namespace perfbench {

using deepcam::core::CompiledModel;
using deepcam::core::ContextBatch;
using deepcam::core::Dataflow;
namespace nn = deepcam::nn;

Replayer::Replayer(const CompiledModel& compiled)
    : compiled_(&compiled),
      cam_(compiled.cam_config(), compiled.config().sense),
      postproc_(compiled.config().postproc) {}

void Replayer::cam_passes(std::size_t cam_idx, std::uint32_t sample,
                          std::uint32_t node, SpanLog* log) {
  const CompiledModel::CamLayer& cl = compiled_->cam_layer(cam_idx);
  const ContextBatch& w_ctx = cl.weight_ctx;
  const std::size_t P = act_ctx_.size();
  const std::size_t K = w_ctx.size();
  const std::size_t R = compiled_->config().cam_rows;
  const bool ws = compiled_->config().dataflow == Dataflow::kWeightStationary;
  const ContextBatch& stationary = ws ? w_ctx : act_ctx_;
  const ContextBatch& streamed = ws ? act_ctx_ : w_ctx;

  cam_.set_hash_length(cl.hash_bits);
  if (flat_.size() < K * P) flat_.resize(K * P);
  for (std::size_t base = 0; base < stationary.size(); base += R) {
    const std::size_t count = std::min(R, stationary.size() - base);
    {
      ScopedSpan sp(log, kSpanWrite, sample, node, 2,
                    static_cast<std::uint32_t>(count));
      cam_.clear();
      for (std::size_t r = 0; r < count; ++r)
        cam_.write_row(r, stationary.sig_span(base + r));
    }
    counts_.rows_written += count;
    for (std::size_t sidx = 0; sidx < streamed.size(); ++sidx) {
      {
        ScopedSpan sp(log, kSpanSearch, sample, node, 2);
        cam_.search_flat(streamed.sig_span(sidx), search_buf_);
      }
      ScopedSpan sp(log, kSpanPostproc, sample, node, 2,
                    static_cast<std::uint32_t>(count));
      const std::uint16_t* hd = search_buf_.row_hd.data();
      for (std::size_t r = 0; r < count; ++r) {
        const std::size_t kernel = ws ? (base + r) : sidx;
        const std::size_t patch = ws ? sidx : (base + r);
        flat_[kernel * P + patch] = postproc_.finish_dot_product(
            w_ctx[kernel], act_ctx_[patch], hd[r], cl.hash_bits,
            cl.bias[kernel]);
      }
    }
    counts_.searches += streamed.size();
    counts_.dots += count * streamed.size();
  }
}

nn::Tensor Replayer::run(const nn::Tensor& input, std::uint32_t sample,
                         SpanLog* log, std::size_t skip_node) {
  ScopedSpan sample_span(log, kSpanSample, sample, kNoLayer, 0);
  const nn::Model& model = compiled_->model();
  std::vector<nn::Tensor> outs;
  outs.reserve(model.node_count());
  std::size_t cam_idx = 0;

  for (std::size_t i = 0; i < model.node_count(); ++i) {
    const auto node = static_cast<std::uint32_t>(i);
    ScopedSpan layer_span(log, kSpanLayer, sample, node, 1);
    const nn::Layer& layer = model.layer(i);
    const auto& inputs = model.inputs_of(i);
    auto fetch = [&](int idx) -> const nn::Tensor& {
      return idx == nn::kModelInput ? input
                                    : outs[static_cast<std::size_t>(idx)];
    };
    const nn::Tensor& in = fetch(inputs[0]);
    const bool cam_layer = layer.kind() == nn::LayerKind::kConv2D ||
                           layer.kind() == nn::LayerKind::kLinear;
    if (i == skip_node) {
      outs.push_back(in);
      if (cam_layer) ++cam_idx;
      continue;
    }

    if (cam_layer) {
      const CompiledModel::CamLayer& cl = compiled_->cam_layer(cam_idx);
      const auto* conv = dynamic_cast<const nn::Conv2D*>(&layer);
      {
        ScopedSpan sp(log, kSpanHash, sample, node, 2);
        if (conv != nullptr)
          cl.ctxgen->activation_contexts_into(in, conv->spec(), act_ctx_, 0,
                                              cl.hash_bits);
        else
          cl.ctxgen->activation_context_flat_into(in, act_ctx_, 0,
                                                  cl.hash_bits);
      }
      counts_.proj_macs += static_cast<std::uint64_t>(act_ctx_.size()) *
                           cl.ctxgen->input_dim() * cl.hash_bits;
      cam_passes(cam_idx, sample, node, log);
      nn::Tensor out;
      if (conv != nullptr) {
        const nn::ConvSpec& spec = conv->spec();
        out = nn::Tensor({1, spec.out_channels, spec.out_h(in.shape().h),
                          spec.out_w(in.shape().w)});
      } else {
        const auto& fc = static_cast<const nn::Linear&>(layer);
        out = nn::Tensor({1, fc.out_features(), 1, 1});
      }
      // flat_ is [kernel][patch], which is the output's channel-major order.
      for (std::size_t j = 0; j < out.numel(); ++j)
        out[j] = static_cast<float>(flat_[j]);
      outs.push_back(std::move(out));
      ++cam_idx;
    } else if (inputs.size() == 2) {
      ScopedSpan sp(log, kSpanPeripheral, sample, node, 2);
      const auto& add = dynamic_cast<const nn::Add&>(layer);
      outs.push_back(add.forward2(fetch(inputs[0]), fetch(inputs[1])));
    } else {
      ScopedSpan sp(log, kSpanPeripheral, sample, node, 2);
      outs.push_back(layer.infer(in));
    }
  }
  return std::move(outs.back());
}

bool bitwise_equal(const nn::Tensor& a, const nn::Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

}  // namespace perfbench
