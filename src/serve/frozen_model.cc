#include "serve/frozen_model.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "autograd/ops.h"
#include "common/check.h"
#include "common/fnv1a.h"
#include "common/trace.h"
#include "tensor/tensor_ops.h"
#include "text/vocabulary.h"

namespace kddn::serve {
namespace {

/// Resizes `t` to `shape` only when needed; contents are unspecified after
/// the call (every user overwrites them fully or zeroes the slack). Recycles
/// the tensor's existing storage, so once a workspace buffer has grown to a
/// workload's high-water size, shape changes stop allocating — this is what
/// keeps the warm frozen forward tensor-allocation-free across mixed
/// document lengths (asserted via alloc::AllocScope in tests/trace_test.cc).
void EnsureShape(Tensor* t, std::vector<int> shape) {
  if (t->shape() != shape) {
    *t = Tensor::AdoptStorage(std::move(shape), std::move(*t).TakeStorage());
  }
}

/// Row-gather matching ag::EmbeddingLookup's forward arithmetic (a copy).
void EmbedRows(const Tensor& table, const std::vector<int>& ids, Tensor* out) {
  const int vocab = table.dim(0), d = table.dim(1);
  EnsureShape(out, {static_cast<int>(ids.size()), d});
  for (size_t i = 0; i < ids.size(); ++i) {
    const int id = ids[i];
    KDDN_CHECK(id >= 0 && id < vocab)
        << "embedding id " << id << " out of range [0," << vocab << ")";
    std::memcpy(out->data() + static_cast<int64_t>(i) * d,
                table.data() + static_cast<int64_t>(id) * d,
                sizeof(float) * static_cast<size_t>(d));
  }
}

/// [a | b] along columns, matching ag::Concat(axis=1) (a pure copy).
void ConcatCols(const Tensor& a, const Tensor& b, Tensor* out) {
  const int rows = a.dim(0);
  KDDN_CHECK_EQ(b.dim(0), rows) << "ConcatCols height mismatch";
  const int ca = a.dim(1), cb = b.dim(1);
  EnsureShape(out, {rows, ca + cb});
  for (int i = 0; i < rows; ++i) {
    std::memcpy(out->data() + static_cast<int64_t>(i) * (ca + cb),
                a.data() + static_cast<int64_t>(i) * ca,
                sizeof(float) * static_cast<size_t>(ca));
    std::memcpy(out->data() + static_cast<int64_t>(i) * (ca + cb) + ca,
                b.data() + static_cast<int64_t>(i) * cb,
                sizeof(float) * static_cast<size_t>(cb));
  }
}

const std::vector<int>& PadFallback() {
  static const std::vector<int> pad = {text::Vocabulary::kPadId};
  return pad;
}

Tensor CopyParam(const nn::ParameterSet& params, const std::string& name) {
  return params.Get(name)->value();
}

}  // namespace

FrozenModel FrozenModel::Freeze(const models::NeuralDocumentModel& model) {
  FrozenModel frozen;
  const std::string name = model.name();
  if (name == "BK-DDN") {
    frozen.kind_ = Kind::kBkDdn;
  } else if (name == "AK-DDN") {
    frozen.kind_ = Kind::kAkDdn;
  } else {
    KDDN_CHECK(false) << "FrozenModel serves BK-DDN / AK-DDN only, got "
                      << name;
  }
  const models::ModelConfig& config = model.config();
  frozen.embedding_dim_ = config.embedding_dim;
  frozen.num_filters_ = config.num_filters;
  frozen.filter_widths_ = config.filter_widths;
  frozen.residual_ = config.akddn_residual;
  KDDN_CHECK(!frozen.filter_widths_.empty()) << "model has no filter widths";

  // Canonical storage: every parameter, registration order, one contiguous
  // blob. The fingerprint is over these bytes.
  const nn::ParameterSet& params = model.params();
  frozen.blob_.reserve(static_cast<size_t>(params.TotalWeights()));
  for (const ag::NodePtr& param : params.all()) {
    const Tensor& value = param->value();
    frozen.blob_.insert(frozen.blob_.end(), value.data(),
                        value.data() + value.size());
  }
  frozen.fingerprint_ =
      Fnv1a(frozen.blob_.data(), frozen.blob_.size() * sizeof(float));

  // Kernel-ready views, validated against the config-derived shapes.
  frozen.word_table_ = CopyParam(params, "word_emb.table");
  frozen.concept_table_ = CopyParam(params, "concept_emb.table");
  KDDN_CHECK_EQ(frozen.word_table_.dim(1), config.embedding_dim)
      << "word embedding width mismatch";
  const int conv_in =
      config.embedding_dim *
      (frozen.kind_ == Kind::kAkDdn && frozen.residual_ ? 2 : 1);
  for (int width : frozen.filter_widths_) {
    const std::string suffix = std::to_string(width);
    frozen.word_conv_w_.push_back(CopyParam(params, "word_conv.w" + suffix));
    frozen.word_conv_b_.push_back(CopyParam(params, "word_conv.b" + suffix));
    frozen.concept_conv_w_.push_back(
        CopyParam(params, "concept_conv.w" + suffix));
    frozen.concept_conv_b_.push_back(
        CopyParam(params, "concept_conv.b" + suffix));
    KDDN_CHECK_EQ(frozen.word_conv_w_.back().dim(1), width * conv_in)
        << "conv fan-in mismatch for width " << width;
  }
  frozen.cls_weight_ = CopyParam(params, "cls.weight");
  frozen.cls_bias_ = CopyParam(params, "cls.bias");
  const int fused_dim = 2 * frozen.num_filters_ *
                        static_cast<int>(frozen.filter_widths_.size());
  KDDN_CHECK_EQ(frozen.cls_weight_.dim(0), fused_dim)
      << "classifier fan-in mismatch";
  KDDN_CHECK_EQ(frozen.cls_weight_.dim(1), 2) << "binary classifier expected";
  return frozen;
}

void FrozenModel::ConvBank(const Tensor& input,
                           const std::vector<Tensor>& weights,
                           const std::vector<Tensor>& biases, Workspace* ws,
                           int fused_offset) const {
  int max_width = filter_widths_[0];
  for (int width : filter_widths_) {
    max_width = std::max(max_width, width);
  }
  // ag::PadRows: identity when the document is long enough, else zero-pad.
  const Tensor* padded = &input;
  if (input.dim(0) < max_width) {
    EnsureShape(&ws->padded, {max_width, input.dim(1)});
    ws->padded.Fill(0.0f);
    std::memcpy(ws->padded.data(), input.data(),
                sizeof(float) * static_cast<size_t>(input.size()));
    padded = &ws->padded;
  }
  const int m = padded->dim(0), d = padded->dim(1);
  for (size_t i = 0; i < filter_widths_.size(); ++i) {
    const int width = filter_widths_[i];
    // ag::Unfold: row j = flattened window rows [j, j+width).
    const int windows = m - width + 1;
    EnsureShape(&ws->windows, {windows, width * d});
    for (int j = 0; j < windows; ++j) {
      std::memcpy(ws->windows.data() + static_cast<int64_t>(j) * width * d,
                  padded->data() + static_cast<int64_t>(j) * d,
                  sizeof(float) * static_cast<size_t>(width) * d);
    }
    // Convolution = the same MatMulABt kernel the graph path uses; then one
    // dispatched pass applies bias, ReLU and max-over-time exactly as
    // ag::AddRowBroadcast / ag::Relu / ag::MaxOverTime would, writing the
    // pooled features straight into `fused`.
    kddn::MatMulABtInto(&ws->feature_map, ws->windows, weights[i]);
    kddn::BiasReluMaxOverTime(ws->feature_map, biases[i],
                              ws->fused.data() + fused_offset +
                                  static_cast<int64_t>(i) * num_filters_);
  }
}

const Tensor& FrozenModel::Logits(const data::Example& example,
                                  Workspace* ws) const {
  KDDN_TRACE_SPAN("frozen.forward");
  KDDN_CHECK(ws != nullptr);
  const std::vector<int>& word_ids =
      example.word_ids.empty() ? PadFallback() : example.word_ids;
  const std::vector<int>& concept_ids =
      example.concept_ids.empty() ? PadFallback() : example.concept_ids;

  const Tensor* word_in = nullptr;
  const Tensor* concept_in = nullptr;
  if (kind_ == Kind::kBkDdn) {
    EmbedRows(word_table_, word_ids, &ws->word_emb);
    EmbedRows(concept_table_, concept_ids, &ws->concept_emb);
    word_in = &ws->word_emb;
    concept_in = &ws->concept_emb;
  } else {
    EmbedRows(word_table_, word_ids, &ws->word_emb);
    EmbedRows(concept_table_, concept_ids, &ws->concept_emb);
    // Co-attention (nn::Atti): softmax(W Cᵀ) C and softmax(C Wᵀ) W, via the
    // same kernels as the graph path.
    // The Into variants reuse the workspace tensors' storage, so a warmed-up
    // workspace runs the whole attention stage allocation-free.
    kddn::MatMulABtInto(&ws->atti_scores, ws->word_emb, ws->concept_emb);
    kddn::SoftmaxRowsInto(&ws->word_to_concept, ws->atti_scores);
    kddn::MatMulInto(&ws->ic, ws->word_to_concept, ws->concept_emb);
    kddn::MatMulABtInto(&ws->atti_scores, ws->concept_emb, ws->word_emb);
    kddn::SoftmaxRowsInto(&ws->concept_to_word, ws->atti_scores);
    kddn::MatMulInto(&ws->iw, ws->concept_to_word, ws->word_emb);
    if (residual_) {
      ConcatCols(ws->word_emb, ws->ic, &ws->word_in);
      ConcatCols(ws->concept_emb, ws->iw, &ws->concept_in);
      word_in = &ws->word_in;
      concept_in = &ws->concept_in;
    } else {
      word_in = &ws->ic;
      concept_in = &ws->iw;
    }
  }

  const int branch_dim =
      num_filters_ * static_cast<int>(filter_widths_.size());
  EnsureShape(&ws->fused, {1, 2 * branch_dim});
  ConvBank(*word_in, word_conv_w_, word_conv_b_, ws, /*fused_offset=*/0);
  ConvBank(*concept_in, concept_conv_w_, concept_conv_b_, ws,
           /*fused_offset=*/branch_dim);

  // nn::Dense on a rank-1 input: [1, in] x [in, 2] + bias (same kernel).
  kddn::MatMulInto(&ws->cls_out, ws->fused, cls_weight_);
  EnsureShape(&ws->logits, {2});
  ws->logits[0] = ws->cls_out.at(0, 0) + cls_bias_[0];
  ws->logits[1] = ws->cls_out.at(0, 1) + cls_bias_[1];
  return ws->logits;
}

float FrozenModel::ScorePositive(const data::Example& example,
                                 Workspace* ws) const {
  return ag::SoftmaxProbs(Logits(example, ws))[1];
}

float FrozenModel::ScorePositive(const data::Example& example) const {
  static thread_local Workspace ws;
  return ScorePositive(example, &ws);
}

bool FrozenModel::VerifyChecksum() const {
  return Fnv1a(blob_.data(), blob_.size() * sizeof(float)) == fingerprint_;
}

void FrozenModel::CorruptBlobForTest(size_t index) {
  KDDN_CHECK(index < blob_.size()) << "corruption index out of range";
  uint32_t bits;
  std::memcpy(&bits, &blob_[index], sizeof(bits));
  bits ^= 0x00400000u;  // Flip a mantissa bit: value changes, stays finite.
  std::memcpy(&blob_[index], &bits, sizeof(bits));
}

}  // namespace kddn::serve
