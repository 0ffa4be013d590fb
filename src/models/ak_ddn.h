#ifndef KDDN_MODELS_AK_DDN_H_
#define KDDN_MODELS_AK_DDN_H_

#include "models/neural_model.h"

namespace kddn::models {

/// Advanced Knowledge-aware Deep Dual Network (paper §V, Fig. 5): before the
/// two CNNs, the word and concept embedding matrices interact through the
/// co-attention block ATTI (Fig. 4):
///   Ic = softmax(W · Cᵀ) · C  — concepts-based interaction with words
///        (every word queries the concepts, §V-1);
///   Iw = softmax(C · Wᵀ) · W  — words-based interaction with concepts
///        (every concept queries the words, §V-2).
/// Two separate CNNs then model Ic and Iw, and the pooled vectors are fused
/// and classified as in BK-DDN. The two attention maps and the pooled
/// vectors (Tables VII–X, Figs 10–12) are read from a serve::FrozenModel
/// Workspace after its forward (serve/frozen_model.h).
class AkDdn : public NeuralDocumentModel {
 public:
  explicit AkDdn(const ModelConfig& config);

  ag::NodePtr Logits(const data::Example& example,
                     const nn::ForwardContext& ctx) override;

  const char* name() const override { return "AK-DDN"; }

 private:
  Rng init_rng_;
  nn::Embedding word_embedding_;
  nn::Embedding concept_embedding_;
  nn::Conv1dBank word_conv_;     // Over Ic (word-indexed rows).
  nn::Conv1dBank concept_conv_;  // Over Iw (concept-indexed rows).
  nn::Dense classifier_;
  float dropout_;
  bool residual_;
};

}  // namespace kddn::models

#endif  // KDDN_MODELS_AK_DDN_H_
