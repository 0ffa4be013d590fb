#ifndef KDDN_MODELS_TEXT_CNN_H_
#define KDDN_MODELS_TEXT_CNN_H_

#include "models/neural_model.h"

namespace kddn::models {

/// Kim-style single-branch CNN over word embeddings (paper baseline
/// "Text CNN", §VII-D; the upper component of BK-DDN, Fig. 2): embedding →
/// {1,2,3}-gram convolutions → ReLU → max-over-time → concat → dropout →
/// dense softmax.
class TextCnn : public NeuralDocumentModel {
 public:
  explicit TextCnn(const ModelConfig& config);

  ag::NodePtr Logits(const data::Example& example,
                     const nn::ForwardContext& ctx) override;

  const char* name() const override { return "Text CNN"; }

 private:
  Rng init_rng_;
  nn::Embedding embedding_;
  nn::Conv1dBank conv_;
  nn::Dense classifier_;
  float dropout_;
};

/// The same architecture over the UMLS concept sequence (paper baseline
/// "Concept CNN"; the lower component of BK-DDN).
class ConceptCnn : public NeuralDocumentModel {
 public:
  explicit ConceptCnn(const ModelConfig& config);

  ag::NodePtr Logits(const data::Example& example,
                     const nn::ForwardContext& ctx) override;

  const char* name() const override { return "Concept CNN"; }

 private:
  Rng init_rng_;
  nn::Embedding embedding_;
  nn::Conv1dBank conv_;
  nn::Dense classifier_;
  float dropout_;
};

}  // namespace kddn::models

#endif  // KDDN_MODELS_TEXT_CNN_H_
