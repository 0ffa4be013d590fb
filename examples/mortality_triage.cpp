// ICU triage scenario from the paper's introduction: clinicians rank
// patients by estimated mortality to allocate attention. This example trains
// AK-DDN for in-hospital mortality, ranks the held-out patients by predicted
// risk, and explains the top-risk patient with the model's own co-attention
// pairs (the paper's Tables VII-X mechanism).
//
// Build & run:  cmake --build build && ./build/examples/mortality_triage
#include <algorithm>
#include <cstdio>
#include <future>
#include <vector>

#include "core/attention_html.h"
#include "core/attention_mining.h"
#include "core/trainer.h"
#include "eval/metrics.h"
#include "kb/concept_extractor.h"
#include "models/ak_ddn.h"
#include "serve/frozen_model.h"
#include "serve/inference_engine.h"

int main() {
  using namespace kddn;
  kb::KnowledgeBase knowledge = kb::KnowledgeBase::BuildDefault();
  kb::ConceptExtractor extractor(&knowledge);

  synth::CohortConfig cohort_config;
  cohort_config.kind = synth::CorpusKind::kRad;
  cohort_config.num_patients = 900;
  cohort_config.seed = 15;
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
  std::printf("training AK-DDN on %zu patients...\n", dataset.train().size());
  trainer.Train(&model, dataset.train(), dataset.validation(),
                synth::Horizon::kInHospital);

  // Rank the incoming (test) patients by predicted in-hospital mortality,
  // scored the way a deployment would: a frozen snapshot of the trained
  // weights behind the micro-batching engine (bitwise identical to the
  // training graph, so the ranking is exactly the model's own).
  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(model);
  serve::InferenceEngine engine(&frozen);
  struct Ranked {
    const data::Example* patient;
    float risk;
  };
  std::vector<std::future<serve::Scored>> risks;
  for (const data::Example& patient : dataset.test()) {
    risks.push_back(engine.ScoreAsync(patient));
  }
  std::vector<Ranked> queue;
  for (size_t i = 0; i < risks.size(); ++i) {
    queue.push_back({&dataset.test()[i], risks[i].get().score});
  }
  std::sort(queue.begin(), queue.end(),
            [](const Ranked& a, const Ranked& b) { return a.risk > b.risk; });

  std::printf("\ntriage queue (top 10 of %zu):\n", queue.size());
  std::printf("  rank | patient | predicted risk | outcome\n");
  for (size_t i = 0; i < std::min<size_t>(10, queue.size()); ++i) {
    std::printf("  %4zu | %7d | %13.1f%% | %s\n", i + 1,
                queue[i].patient->patient_id, 100.0f * queue[i].risk,
                queue[i].patient->Label(synth::Horizon::kInHospital)
                    ? "died in hospital"
                    : "survived");
  }

  const double auc = core::Trainer::EvaluateAuc(
      &model, dataset.test(), synth::Horizon::kInHospital);
  const auto pr = eval::PrecisionRecallAt(
      core::Trainer::Scores(&model, dataset.test()),
      core::Trainer::Labels(dataset.test(), synth::Horizon::kInHospital),
      0.5f);
  std::printf("\nranking quality: AUC %.3f, precision %.2f, recall %.2f\n",
              auc, pr.precision, pr.recall);
  std::printf("serving: snapshot %016llx, stats %s\n",
              static_cast<unsigned long long>(frozen.fingerprint()),
              engine.stats().ToJson().c_str());

  // Explain the highest-risk patient with co-attention evidence.
  const data::Example& sickest = *queue.front().patient;
  std::printf("\nwhy is patient %d first in the queue?\n",
              sickest.patient_id);
  const auto pairs = core::MineWordBasedPairs(
      frozen, sickest, dataset.word_vocab(), dataset.concept_vocab(),
      knowledge, 6);
  for (const core::AttentionPair& pair : pairs) {
    std::printf("  %s (%s) <-> \"%s\"  weight %.4f\n", pair.cui.c_str(),
                pair.concept_name.c_str(), pair.word.c_str(), pair.weight);
  }

  // Full browsable heatmap of the same evidence.
  const std::string html_path = "triage_attention.html";
  core::WriteAttentionHtmlFile(frozen, sickest, dataset.word_vocab(),
                               dataset.concept_vocab(), knowledge, html_path);
  std::printf("\nwrote co-attention heatmap to %s\n", html_path.c_str());
  return 0;
}
