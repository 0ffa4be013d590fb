// Explores what the jointly-trained embeddings learned (the paper's §VIII
// "word and concept embedding analysis"): nearest neighbours of clinical
// words and CUIs in the trained embedding spaces, and a t-SNE export of
// patient representations as CSV for external plotting.
//
// Build & run:  cmake --build build && ./build/examples/embedding_explorer
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "eval/embedding_analysis.h"
#include "kb/concept_extractor.h"
#include "models/ak_ddn.h"
#include "serve/frozen_model.h"
#include "viz/tsne.h"

using namespace kddn;

int main() {
  kb::KnowledgeBase knowledge = kb::KnowledgeBase::BuildDefault();
  kb::ConceptExtractor extractor(&knowledge);

  synth::CohortConfig cohort_config;
  cohort_config.num_patients = 900;
  cohort_config.seed = 27;
  synth::Cohort cohort = synth::Cohort::Generate(cohort_config, knowledge);
  data::MortalityDataset dataset =
      data::MortalityDataset::Build(cohort, extractor);

  models::ModelConfig model_config;
  model_config.word_vocab_size = dataset.word_vocab().size();
  model_config.concept_vocab_size = dataset.concept_vocab().size();
  model_config.embedding_dim = 16;
  model_config.num_filters = 32;
  models::AkDdn model(model_config);

  core::TrainOptions train_options;
  train_options.epochs = 6;
  train_options.batch_size = 32;
  core::Trainer trainer(train_options);
  std::printf("training AK-DDN (embeddings learn jointly, paper §IV-A)...\n");
  trainer.Train(&model, dataset.train(), dataset.validation(),
                synth::Horizon::kWithinYear);

  // Word-embedding neighbourhoods.
  const Tensor& word_table = model.params().Get("word_emb.table")->value();
  std::printf("\nnearest words in the trained word-embedding space:\n");
  for (const char* query : {"worsening", "improve", "effusion", "tube"}) {
    const int id = dataset.word_vocab().Id(query);
    if (id == text::Vocabulary::kUnkId) {
      std::printf("  %-10s -> (not in vocabulary)\n", query);
      continue;
    }
    std::printf("  %-10s ->", query);
    for (const eval::Neighbour& n :
         eval::NearestNeighbours(word_table, id, 4)) {
      std::printf(" %s(%.2f)", dataset.word_vocab().TokenOf(n.id).c_str(),
                  n.similarity);
    }
    std::printf("\n");
  }

  // Concept-embedding neighbourhoods, resolved through the knowledge base.
  const Tensor& concept_table =
      model.params().Get("concept_emb.table")->value();
  std::printf("\nnearest concepts in the trained concept-embedding space:\n");
  for (const char* cui : {"C0018802", "C0034063", "C0336630"}) {
    const int id = dataset.concept_vocab().Id(cui);
    if (id == text::Vocabulary::kUnkId) {
      continue;
    }
    const kb::Concept* entry = knowledge.FindByCui(cui);
    std::printf("  %-28s ->", entry->preferred_name.c_str());
    for (const eval::Neighbour& n :
         eval::NearestNeighbours(concept_table, id, 3)) {
      const kb::Concept* neighbour =
          knowledge.FindByCui(dataset.concept_vocab().TokenOf(n.id));
      std::printf(" %s(%.2f)",
                  neighbour != nullptr ? neighbour->preferred_name.c_str()
                                       : "?",
                  n.similarity);
    }
    std::printf("\n");
  }

  // t-SNE CSV export of joint patient representations (Figs 10-12 panel c).
  const int count = std::min<int>(200, dataset.test().size());
  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(model);
  serve::FrozenModel::Workspace ws;
  Tensor joint;
  std::vector<int> labels;
  for (int i = 0; i < count; ++i) {
    frozen.Logits(dataset.test()[i], &ws);  // ws.fused: pooled features.
    if (i == 0) {
      joint = Tensor({count, ws.fused.dim(1)});
    }
    for (int k = 0; k < ws.fused.dim(1); ++k) {
      joint.at(i, k) = ws.fused.at(0, k);
    }
    labels.push_back(
        dataset.test()[i].Label(synth::Horizon::kWithinYear) ? 1 : 0);
  }
  viz::TsneOptions tsne_options;
  tsne_options.iterations = 200;
  tsne_options.perplexity = 20.0;
  const Tensor embedding = viz::Tsne(joint, tsne_options);
  std::printf("\njoint-representation t-SNE (first 8 rows of CSV; class "
              "separation %.3f):\n",
              viz::ClassSeparation(embedding, labels));
  std::printf("x,y,label\n");
  for (int i = 0; i < std::min(8, count); ++i) {
    std::printf("%.3f,%.3f,%d\n", embedding.at(i, 0), embedding.at(i, 1),
                labels[i]);
  }
  return 0;
}
