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

AkDdn::Branches AkDdn::Forward(const data::Example& example) {
  KDDN_CHECK(!example.word_ids.empty()) << "empty word sequence";
  KDDN_CHECK(!example.concept_ids.empty()) << "empty concept sequence";
  ag::NodePtr words = word_embedding_.Forward(example.word_ids);
  ag::NodePtr concepts = concept_embedding_.Forward(example.concept_ids);

  // Co-attention (paper Fig. 4): each side queries the other.
  const nn::AttiResult word_queries = nn::Atti(words, concepts);     // Ic [m_w, d]
  const nn::AttiResult concept_queries = nn::Atti(concepts, words);  // Iw [m_c, d]

  ag::NodePtr word_input = word_queries.output;
  ag::NodePtr concept_input = concept_queries.output;
  if (residual_) {
    // Ablation: keep the raw embeddings alongside the interactions.
    word_input = ag::Concat({words, word_input}, /*axis=*/1);
    concept_input = ag::Concat({concepts, concept_input}, /*axis=*/1);
  }

  Branches branches;
  branches.word_features = word_conv_.Forward(word_input);
  branches.concept_features = concept_conv_.Forward(concept_input);
  branches.word_to_concept_weights = word_queries.weights;
  branches.concept_to_word_weights = concept_queries.weights;
  return branches;
}

ag::NodePtr AkDdn::Logits(const data::Example& example,
                          const nn::ForwardContext& ctx) {
  Branches branches = Forward(example);
  ag::NodePtr fused =
      ag::Concat({branches.word_features, branches.concept_features}, 0);
  fused = ag::Dropout(fused, dropout_, ctx.training, ctx.rng);
  return classifier_.Forward(fused);
}

AkDdn::AttentionMaps AkDdn::Attend(const data::Example& example) {
  Branches branches = Forward(example);
  AttentionMaps maps;
  maps.word_to_concept = branches.word_to_concept_weights->value();
  maps.concept_to_word = branches.concept_to_word_weights->value();
  return maps;
}

AkDdn::Representations AkDdn::Represent(const data::Example& example) {
  Branches branches = Forward(example);
  Representations reps;
  reps.word = branches.word_features->value();
  reps.concept_vec = branches.concept_features->value();
  reps.joint =
      ag::Concat({branches.word_features, branches.concept_features}, 0)
          ->value();
  return reps;
}

}  // namespace kddn::models
