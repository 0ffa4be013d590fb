#ifndef KDDN_SERVE_FROZEN_MODEL_H_
#define KDDN_SERVE_FROZEN_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "models/neural_model.h"
#include "tensor/tensor.h"

namespace kddn::serve {

/// Immutable inference snapshot of a trained BK-DDN or AK-DDN. Freeze()
/// deep-copies the model's ParameterSet into one contiguous float blob (the
/// canonical storage, fingerprinted for cache keys and change detection) and
/// materialises per-parameter tensors from it for the forward kernels. The
/// forward pass is gradient-free: no ag::Node graph is allocated, dropout is
/// the identity (inference mode), and all intermediates live in a caller- or
/// thread-owned Workspace that is reused across calls.
///
/// Bitwise contract: scoring an example through a FrozenModel produces the
/// same float, bit for bit, as NeuralDocumentModel::PredictPositiveProbability
/// on the source model — at any thread-pool size and in any batch
/// interleaving. This holds because the matmul/softmax stages call the exact
/// same deterministic tensor kernels the autograd ops call; the conv
/// epilogue (bias add, ReLU, max-over-time) is one ISA-dispatched kernel,
/// kddn::BiasReluMaxOverTime, that reads the feature map once and performs
/// ag::AddRowBroadcast's add and ag::Relu's / ag::MaxOverTime's comparisons
/// per filter in the same row order; and the copy stages (lookup, pad,
/// unfold, concat) replicate those ops exactly. tests/serve_test.cc enforces
/// the contract, short documents (the pad and single-window paths) included.
class FrozenModel {
 public:
  enum class Kind { kBkDdn, kAkDdn };

  /// Per-call scratch. One instance per thread; buffers are reallocated only
  /// when a document's shape outgrows them, so steady-state serving of
  /// same-truncation traffic does no per-request tensor allocation outside
  /// the shared matmul kernels.
  ///
  /// Feature contract: after Logits(example, ws) returns, three fields hold
  /// the model's interpretable intermediates, bitwise what the graph forward
  /// computes for the same (non-empty) example, until the next call with
  /// this workspace:
  ///   - word_to_concept [m_w, m_c], AK-DDN only: row i is word i's softmax
  ///     weights over the note's concepts (paper §V-1, Tables VIII & X);
  ///   - concept_to_word [m_c, m_w], AK-DDN only: row j is concept j's
  ///     weights over the words (paper §V-2, Tables VII & IX);
  ///   - fused [1, 2 * filters * |widths|]: the pooled patient
  ///     representation (Figs 10-12), word-branch half first, then the
  ///     concept-branch half.
  /// For an empty word or concept sequence the maps cover the <pad>
  /// fallback token, not the example's ids.
  struct Workspace {
    Tensor word_emb;         // [m_w, d] embedded words.
    Tensor concept_emb;      // [m_c, d] embedded concepts.
    Tensor word_in;          // CNN input, word branch (AK: interaction rows).
    Tensor concept_in;       // CNN input, concept branch.
    Tensor atti_scores;      // Co-attention scores (AK-DDN only).
    Tensor word_to_concept;  // [m_w, m_c] row-softmaxed W·Cᵀ (AK-DDN only).
    Tensor concept_to_word;  // [m_c, m_w] row-softmaxed C·Wᵀ (AK-DDN only).
    Tensor ic;               // Word-queries-concepts interaction matrix.
    Tensor iw;               // Concept-queries-words interaction matrix.
    Tensor padded;           // Conv input padded to the largest filter width.
    Tensor windows;          // im2col windows for the current filter width.
    Tensor feature_map;      // Conv scores before the bias [windows, filters].
    Tensor fused;            // [1, out_w + out_c] pooled features.
    Tensor cls_out;          // [1, 2] classifier product before the bias.
    Tensor logits;           // [2].
  };

  /// Snapshots a trained model. Only BK-DDN and AK-DDN are servable (they are
  /// the paper's end products); any other model kind fails with a KddnError.
  static FrozenModel Freeze(const models::NeuralDocumentModel& model);

  /// Rank-1 logits [2] for one example, written through `ws`. The reference
  /// aliases `ws->logits` and is valid until the next call with the same
  /// workspace (returning by reference keeps the warm forward free of tensor
  /// allocations — a tested invariant, see tests/trace_test.cc). Empty word
  /// or concept sequences (possible for raw serving traffic; training drops
  /// such patients) are scored as a single <pad> token, so every input has a
  /// well-defined probability.
  const Tensor& Logits(const data::Example& example, Workspace* ws) const;

  /// Probability of the positive (death) class.
  float ScorePositive(const data::Example& example, Workspace* ws) const;

  /// Convenience overload using a thread-local Workspace.
  float ScorePositive(const data::Example& example) const;

  Kind kind() const { return kind_; }
  const char* name() const {
    return kind_ == Kind::kBkDdn ? "BK-DDN" : "AK-DDN";
  }

  /// FNV-1a over the weight blob bytes: two snapshots of identical weights
  /// share a fingerprint; any weight change alters it.
  uint64_t fingerprint() const { return fingerprint_; }

  /// Recomputes the FNV-1a checksum over the weight blob and compares it to
  /// the fingerprint recorded at Freeze() time. False means the snapshot's
  /// canonical bytes no longer match what was frozen (bit rot, a bad copy, a
  /// poisoned artifact) — the swap health gate refuses to publish such a
  /// snapshot (DESIGN.md §13).
  bool VerifyChecksum() const;

  /// Test hook: flips bits of one blob scalar so VerifyChecksum() fails.
  /// Deliberately does NOT touch the kernel-ready tensors — a poisoned blob
  /// must be caught by the checksum stage, not by serving garbage.
  void CorruptBlobForTest(size_t index);

  /// Total scalar weights in the snapshot.
  int64_t num_weights() const { return static_cast<int64_t>(blob_.size()); }

  /// The contiguous weight blob (read-only; canonical snapshot storage).
  const std::vector<float>& blob() const { return blob_; }

 private:
  FrozenModel() = default;

  /// The two CNN branches share this: pad, unfold per width, convolve, bias,
  /// ReLU, max-over-time; pooled features are written to
  /// fused[0, offset .. offset + num_filters * |widths|).
  void ConvBank(const Tensor& input, const std::vector<Tensor>& weights,
                const std::vector<Tensor>& biases, Workspace* ws,
                int fused_offset) const;

  Kind kind_ = Kind::kBkDdn;
  int embedding_dim_ = 0;
  int num_filters_ = 0;
  std::vector<int> filter_widths_;
  bool residual_ = true;  // AK-DDN: raw embeddings concatenated alongside.

  std::vector<float> blob_;  // All weights, contiguous, registration order.
  uint64_t fingerprint_ = 0;

  // Kernel-ready tensors materialised from blob_ at Freeze() time (the
  // shared matmul kernels take Tensor operands; weights are a few hundred KB
  // so the copy is cheap and keeps Tensor free of aliasing machinery).
  Tensor word_table_;                  // [V_w, d]
  Tensor concept_table_;               // [V_c, d]
  std::vector<Tensor> word_conv_w_;    // Per width: [filters, width * in_dim].
  std::vector<Tensor> word_conv_b_;    // Per width: [filters].
  std::vector<Tensor> concept_conv_w_;
  std::vector<Tensor> concept_conv_b_;
  Tensor cls_weight_;                  // [in, 2]
  Tensor cls_bias_;                    // [2]
};

}  // namespace kddn::serve

#endif  // KDDN_SERVE_FROZEN_MODEL_H_
