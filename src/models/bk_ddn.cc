#include "models/bk_ddn.h"

#include "autograd/ops.h"
#include "common/check.h"

namespace kddn::models {

BkDdn::BkDdn(const ModelConfig& config)
    : NeuralDocumentModel(config),
      init_rng_(config.seed),
      word_embedding_(&params_, "word_emb", config.word_vocab_size,
                      config.embedding_dim, &init_rng_),
      concept_embedding_(&params_, "concept_emb", config.concept_vocab_size,
                         config.embedding_dim, &init_rng_),
      word_conv_(&params_, "word_conv", config.embedding_dim,
                 config.num_filters, config.filter_widths, &init_rng_),
      concept_conv_(&params_, "concept_conv", config.embedding_dim,
                    config.num_filters, config.filter_widths, &init_rng_),
      classifier_(&params_, "cls",
                  word_conv_.output_dim() + concept_conv_.output_dim(), 2,
                  &init_rng_),
      dropout_(config.dropout) {}

ag::NodePtr BkDdn::Logits(const data::Example& example,
                          const nn::ForwardContext& ctx) {
  KDDN_CHECK(!example.word_ids.empty()) << "empty word sequence";
  KDDN_CHECK(!example.concept_ids.empty()) << "empty concept sequence";
  ag::NodePtr word_features =
      word_conv_.Forward(word_embedding_.Forward(example.word_ids));
  ag::NodePtr concept_features =
      concept_conv_.Forward(concept_embedding_.Forward(example.concept_ids));
  ag::NodePtr fused = ag::Concat({word_features, concept_features}, 0);
  fused = ag::Dropout(fused, dropout_, ctx.training, ctx.rng);
  return classifier_.Forward(fused);
}

}  // namespace kddn::models
