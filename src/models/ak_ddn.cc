#include "models/ak_ddn.h"

#include "autograd/ops.h"
#include "common/check.h"

namespace kddn::models {

AkDdn::AkDdn(const ModelConfig& config)
    : NeuralDocumentModel(config),
      init_rng_(config.seed),
      word_embedding_(&params_, "word_emb", config.word_vocab_size,
                      config.embedding_dim, &init_rng_),
      concept_embedding_(&params_, "concept_emb", config.concept_vocab_size,
                         config.embedding_dim, &init_rng_),
      word_conv_(&params_, "word_conv",
                 config.embedding_dim * (config.akddn_residual ? 2 : 1),
                 config.num_filters, config.filter_widths, &init_rng_),
      concept_conv_(&params_, "concept_conv",
                    config.embedding_dim * (config.akddn_residual ? 2 : 1),
                    config.num_filters, config.filter_widths, &init_rng_),
      classifier_(&params_, "cls",
                  word_conv_.output_dim() + concept_conv_.output_dim(), 2,
                  &init_rng_),
      dropout_(config.dropout),
      residual_(config.akddn_residual) {}

ag::NodePtr AkDdn::Logits(const data::Example& example,
                          const nn::ForwardContext& ctx) {
  KDDN_CHECK(!example.word_ids.empty()) << "empty word sequence";
  KDDN_CHECK(!example.concept_ids.empty()) << "empty concept sequence";
  ag::NodePtr words = word_embedding_.Forward(example.word_ids);
  ag::NodePtr concepts = concept_embedding_.Forward(example.concept_ids);

  // Co-attention (paper Fig. 4): each side queries the other.
  ag::NodePtr word_input = nn::Atti(words, concepts).output;     // Ic [m_w, d]
  ag::NodePtr concept_input = nn::Atti(concepts, words).output;  // Iw [m_c, d]
  if (residual_) {
    // Ablation: keep the raw embeddings alongside the interactions.
    word_input = ag::Concat({words, word_input}, /*axis=*/1);
    concept_input = ag::Concat({concepts, concept_input}, /*axis=*/1);
  }

  ag::NodePtr fused = ag::Concat(
      {word_conv_.Forward(word_input), concept_conv_.Forward(concept_input)},
      0);
  fused = ag::Dropout(fused, dropout_, ctx.training, ctx.rng);
  return classifier_.Forward(fused);
}

}  // namespace kddn::models
