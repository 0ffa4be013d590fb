#ifndef KDDN_NN_LAYERS_H_
#define KDDN_NN_LAYERS_H_

#include <string>
#include <vector>

#include "autograd/node.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "nn/parameter.h"

namespace kddn::nn {

/// Per-forward-pass context: training toggles dropout; rng drives its masks.
struct ForwardContext {
  bool training = false;
  Rng* rng = nullptr;
};

/// Trainable token-embedding table (paper §IV-A: embeddings are learned
/// jointly, not pre-trained). Forward maps an id sequence to a [len, dim]
/// matrix node.
class Embedding {
 public:
  /// Registers a [vocab_size, dim] table in `params`, initialised N(0, 0.1).
  Embedding(ParameterSet* params, const std::string& name, int vocab_size,
            int dim, Rng* rng);

  /// Looks up the rows for `ids`; ids must be in [0, vocab_size).
  ag::NodePtr Forward(const std::vector<int>& ids) const;

  /// The underlying table node (e.g. for weight inspection / tying).
  const ag::NodePtr& table() const { return table_; }

  int dim() const { return dim_; }
  int vocab_size() const { return vocab_size_; }

 private:
  ag::NodePtr table_;
  int vocab_size_;
  int dim_;
};

/// Fully-connected layer y = x·W + b for rank-2 x[m,in] (row-wise) or rank-1
/// x[in].
class Dense {
 public:
  Dense(ParameterSet* params, const std::string& name, int in_dim, int out_dim,
        Rng* rng);

  /// Applies the affine map. Rank-1 inputs return rank-1 outputs.
  ag::NodePtr Forward(const ag::NodePtr& x) const;

  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }

 private:
  ag::NodePtr weight_;  // [in, out]
  ag::NodePtr bias_;    // [out]
  int in_dim_;
  int out_dim_;
};

/// The paper's CNN block (§IV-B): parallel 1-D convolutions with filter
/// widths {1, 2, 3} (unigram/bigram/trigram), ReLU, max-over-time pooling,
/// and concatenation into a fixed-size feature vector of
/// num_filters * |widths| elements. Inputs shorter than the largest width are
/// zero-padded.
class Conv1dBank {
 public:
  Conv1dBank(ParameterSet* params, const std::string& name, int input_dim,
             int num_filters, std::vector<int> widths, Rng* rng);

  /// x: [m, input_dim] token-embedding (or interaction) matrix; returns the
  /// pooled feature vector [num_filters * |widths|].
  ag::NodePtr Forward(const ag::NodePtr& x) const;

  int output_dim() const {
    return num_filters_ * static_cast<int>(widths_.size());
  }

 private:
  std::vector<ag::NodePtr> weights_;  // per width: [num_filters, width*dim]
  std::vector<ag::NodePtr> biases_;   // per width: [num_filters]
  std::vector<int> widths_;
  int input_dim_;
  int num_filters_;
};

/// Result of attention-based interaction: the mixed value matrix plus the
/// attention weights.
struct AttiResult {
  ag::NodePtr output;   // [m_q, d]
  ag::NodePtr weights;  // [m_q, m_kv], rows sum to 1
};

/// ATTI (paper Fig. 4 / §V): each row of `queries` attends over `keys_values`;
/// output row i = softmax(q_i · KV^T) · KV. Query and key dims must match.
AttiResult Atti(const ag::NodePtr& queries, const ag::NodePtr& keys_values);

}  // namespace kddn::nn

#endif  // KDDN_NN_LAYERS_H_
