#include "models/text_cnn.h"

#include "autograd/ops.h"
#include "common/check.h"

namespace kddn::models {

TextCnn::TextCnn(const ModelConfig& config)
    : NeuralDocumentModel(config),
      init_rng_(config.seed),
      embedding_(&params_, "word_emb", config.word_vocab_size,
                 config.embedding_dim, &init_rng_),
      conv_(&params_, "word_conv", config.embedding_dim, config.num_filters,
            config.filter_widths, &init_rng_),
      classifier_(&params_, "cls", conv_.output_dim(), 2, &init_rng_),
      dropout_(config.dropout) {}

ag::NodePtr TextCnn::Logits(const data::Example& example,
                            const nn::ForwardContext& ctx) {
  KDDN_CHECK(!example.word_ids.empty()) << "empty word sequence";
  ag::NodePtr embedded = embedding_.Forward(example.word_ids);
  ag::NodePtr features = conv_.Forward(embedded);
  features = ag::Dropout(features, dropout_, ctx.training, ctx.rng);
  return classifier_.Forward(features);
}

ConceptCnn::ConceptCnn(const ModelConfig& config)
    : NeuralDocumentModel(config),
      init_rng_(config.seed),
      embedding_(&params_, "concept_emb", config.concept_vocab_size,
                 config.embedding_dim, &init_rng_),
      conv_(&params_, "concept_conv", config.embedding_dim,
            config.num_filters, config.filter_widths, &init_rng_),
      classifier_(&params_, "cls", conv_.output_dim(), 2, &init_rng_),
      dropout_(config.dropout) {}

ag::NodePtr ConceptCnn::Logits(const data::Example& example,
                               const nn::ForwardContext& ctx) {
  KDDN_CHECK(!example.concept_ids.empty()) << "empty concept sequence";
  ag::NodePtr embedded = embedding_.Forward(example.concept_ids);
  ag::NodePtr features = conv_.Forward(embedded);
  features = ag::Dropout(features, dropout_, ctx.training, ctx.rng);
  return classifier_.Forward(features);
}

}  // namespace kddn::models
