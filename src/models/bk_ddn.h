#ifndef KDDN_MODELS_BK_DDN_H_
#define KDDN_MODELS_BK_DDN_H_

#include "models/neural_model.h"

namespace kddn::models {

/// Basic Knowledge-aware Deep Dual Network (paper §IV, Fig. 3): a Text CNN
/// branch over the word sequence and a Concept CNN branch over the UMLS
/// concept sequence, trained jointly; the two pooled representations are
/// concatenated and classified by a dense softmax layer. The branches do not
/// interact before the fusion — that is what AK-DDN adds. The pooled branch
/// vectors (Figs 10–12) are read from a serve::FrozenModel Workspace after
/// its forward (serve/frozen_model.h).
class BkDdn : public NeuralDocumentModel {
 public:
  explicit BkDdn(const ModelConfig& config);

  ag::NodePtr Logits(const data::Example& example,
                     const nn::ForwardContext& ctx) override;

  const char* name() const override { return "BK-DDN"; }

 private:
  Rng init_rng_;
  nn::Embedding word_embedding_;
  nn::Embedding concept_embedding_;
  nn::Conv1dBank word_conv_;
  nn::Conv1dBank concept_conv_;
  nn::Dense classifier_;
  float dropout_;
};

}  // namespace kddn::models

#endif  // KDDN_MODELS_BK_DDN_H_
