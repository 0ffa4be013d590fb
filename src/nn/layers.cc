#include "nn/layers.h"

#include <algorithm>

#include "common/check.h"

namespace kddn::nn {

Embedding::Embedding(ParameterSet* params, const std::string& name,
                     int vocab_size, int dim, Rng* rng)
    : vocab_size_(vocab_size), dim_(dim) {
  KDDN_CHECK_GT(vocab_size, 0);
  KDDN_CHECK_GT(dim, 0);
  table_ = params->Create(name + ".table",
                          NormalInit({vocab_size, dim}, 0.1f, rng));
}

ag::NodePtr Embedding::Forward(const std::vector<int>& ids) const {
  return ag::EmbeddingLookup(table_, ids);
}

Dense::Dense(ParameterSet* params, const std::string& name, int in_dim,
             int out_dim, Rng* rng)
    : in_dim_(in_dim), out_dim_(out_dim) {
  KDDN_CHECK_GT(in_dim, 0);
  KDDN_CHECK_GT(out_dim, 0);
  weight_ = params->Create(name + ".weight",
                           XavierUniform({in_dim, out_dim}, in_dim, out_dim,
                                         rng));
  bias_ = params->Create(name + ".bias", Tensor({out_dim}));
}

ag::NodePtr Dense::Forward(const ag::NodePtr& x) const {
  const int rank = x->value().rank();
  KDDN_CHECK(rank == 1 || rank == 2)
      << "Dense input must be rank 1 or 2, got " << x->value().ShapeString();
  if (rank == 1) {
    KDDN_CHECK_EQ(x->value().dim(0), in_dim_) << "Dense input width mismatch";
    ag::NodePtr row = ag::Reshape(x, {1, in_dim_});
    ag::NodePtr out = ag::AddRowBroadcast(ag::MatMul(row, weight_), bias_);
    return ag::Reshape(out, {out_dim_});
  }
  KDDN_CHECK_EQ(x->value().dim(1), in_dim_) << "Dense input width mismatch";
  return ag::AddRowBroadcast(ag::MatMul(x, weight_), bias_);
}

Conv1dBank::Conv1dBank(ParameterSet* params, const std::string& name,
                       int input_dim, int num_filters, std::vector<int> widths,
                       Rng* rng)
    : widths_(std::move(widths)),
      input_dim_(input_dim),
      num_filters_(num_filters) {
  KDDN_CHECK_GT(input_dim, 0);
  KDDN_CHECK_GT(num_filters, 0);
  KDDN_CHECK(!widths_.empty()) << "Conv1dBank needs at least one filter width";
  for (size_t i = 0; i < widths_.size(); ++i) {
    const int width = widths_[i];
    KDDN_CHECK_GT(width, 0);
    const int fan_in = width * input_dim;
    weights_.push_back(params->Create(
        name + ".w" + std::to_string(width),
        XavierUniform({num_filters, fan_in}, fan_in, num_filters, rng)));
    biases_.push_back(
        params->Create(name + ".b" + std::to_string(width),
                       Tensor({num_filters})));
  }
}

ag::NodePtr Conv1dBank::Forward(const ag::NodePtr& x) const {
  KDDN_CHECK_EQ(x->value().rank(), 2);
  KDDN_CHECK_EQ(x->value().dim(1), input_dim_)
      << "Conv1dBank input dim mismatch";
  const int max_width = *std::max_element(widths_.begin(), widths_.end());
  ag::NodePtr padded = ag::PadRows(x, max_width);
  std::vector<ag::NodePtr> pooled;
  pooled.reserve(widths_.size());
  for (size_t i = 0; i < widths_.size(); ++i) {
    ag::NodePtr windows = ag::Unfold(padded, widths_[i]);
    ag::NodePtr feature_map =
        ag::AddRowBroadcast(ag::MatMulABt(windows, weights_[i]), biases_[i]);
    pooled.push_back(ag::MaxOverTime(ag::Relu(feature_map)));
  }
  return ag::Concat(pooled, /*axis=*/0);
}

AttiResult Atti(const ag::NodePtr& queries, const ag::NodePtr& keys_values) {
  KDDN_CHECK_EQ(queries->value().rank(), 2);
  KDDN_CHECK_EQ(keys_values->value().rank(), 2);
  KDDN_CHECK_EQ(queries->value().dim(1), keys_values->value().dim(1))
      << "ATTI requires matching query/key dims (paper uses lw == lc)";
  AttiResult result;
  result.weights = ag::SoftmaxRows(ag::MatMulABt(queries, keys_values));
  result.output = ag::MatMul(result.weights, keys_values);
  return result;
}

}  // namespace kddn::nn
