// Regenerates Tables VII–X: the most important (concept, word) attention
// pairs mined from a trained AK-DDN on the RAD corpus, for one confidently
// predicted positive case (died in hospital) and one negative case. The
// paper's qualitative claim: positive-case pairs are dominated by disease /
// deterioration vocabulary, negative-case pairs by device / procedure /
// recovery vocabulary.
#include <cstdio>
#include <set>

#include "bench_util.h"
#include "core/attention_mining.h"
#include "core/trainer.h"
#include "models/ak_ddn.h"
#include "serve/frozen_model.h"

namespace {

using kddn::core::AttentionPair;

/// Counts pairs whose (lemmatized) word starts with any of the given stems.
int CountMatches(const std::vector<AttentionPair>& pairs,
                 const std::set<std::string>& stems) {
  int count = 0;
  for (const AttentionPair& pair : pairs) {
    for (const std::string& stem : stems) {
      if (pair.word.rfind(stem, 0) == 0) {
        ++count;
        break;
      }
    }
  }
  return count;
}

}  // namespace

int main() {
  using namespace kddn;
  bench::PrintHeader(
      "Tables VII-X — important attention pairs (AK-DDN on RAD)",
      "positive case pairs name diseases + 'increased'; negative case pairs "
      "name tubes/removal");

  bench::BenchSetup setup = bench::MakeRadSetup(/*num_patients=*/1200,
                                                /*seed=*/88);

  models::ModelConfig config;
  config.word_vocab_size = setup.dataset.word_vocab().size();
  config.concept_vocab_size = setup.dataset.concept_vocab().size();
  config.embedding_dim = 20;
  config.num_filters = 50;
  config.seed = 11;
  models::AkDdn model(config);

  core::TrainOptions train_options;
  train_options.epochs = 6;
  train_options.batch_size = 32;
  core::Trainer trainer(train_options);
  trainer.Train(&model, setup.dataset.train(), setup.dataset.validation(),
                synth::Horizon::kInHospital);
  std::printf("test AUC (in-hospital): %.3f\n\n",
              core::Trainer::EvaluateAuc(&model, setup.dataset.test(),
                                         synth::Horizon::kInHospital));

  const data::Example* positive = core::SelectCase(
      &model, setup.dataset.test(), synth::Horizon::kInHospital, true);
  const data::Example* negative = core::SelectCase(
      &model, setup.dataset.test(), synth::Horizon::kInHospital, false);
  if (positive == nullptr || negative == nullptr) {
    std::printf("could not select both demonstration cases\n");
    return 1;
  }
  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(model);

  struct TableSpec {
    const char* title;
    const data::Example* example;
    bool word_based;
  };
  const TableSpec tables[] = {
      {"Table VII — important pairs in word based interaction (positive)",
       positive, true},
      {"Table VIII — important pairs in concept based interaction (positive)",
       positive, false},
      {"Table IX — important pairs in word based interaction (negative)",
       negative, true},
      {"Table X — important pairs in concept based interaction (negative)",
       negative, false},
  };

  std::vector<AttentionPair> positive_pairs, negative_pairs;
  for (const TableSpec& spec : tables) {
    const auto pairs =
        spec.word_based
            ? core::MineWordBasedPairs(frozen, *spec.example,
                                       setup.dataset.word_vocab(),
                                       setup.dataset.concept_vocab(),
                                       *setup.kb, 10)
            : core::MineConceptBasedPairs(frozen, *spec.example,
                                          setup.dataset.word_vocab(),
                                          setup.dataset.concept_vocab(),
                                          *setup.kb, 10);
    std::printf("%s\n", core::FormatPairsTable(spec.title, pairs).c_str());
    if (spec.example == positive) {
      positive_pairs.insert(positive_pairs.end(), pairs.begin(), pairs.end());
    } else {
      negative_pairs.insert(negative_pairs.end(), pairs.begin(), pairs.end());
    }
  }

  // Shape check: deterioration vocabulary should concentrate in the positive
  // case, recovery/removal vocabulary in the negative case (the paper's
  // discussion of Tables VII-X).
  const std::set<std::string> worsening = {"worsen",   "increas",
                                           "deteriorat", "escalat",
                                           "progressive", "guarded",
                                           "critical"};
  const std::set<std::string> recovering = {"improv", "resolv",  "decreas",
                                            "stable", "removal", "remov",
                                            "weaning", "comfortab"};
  const int pos_worse = CountMatches(positive_pairs, worsening);
  const int pos_recover = CountMatches(positive_pairs, recovering);
  const int neg_worse = CountMatches(negative_pairs, worsening);
  const int neg_recover = CountMatches(negative_pairs, recovering);
  std::printf("Shape checks:\n");
  std::printf("  positive case leans to deterioration words: %s (%d vs %d)\n",
              pos_worse >= pos_recover ? "OK" : "MISMATCH", pos_worse,
              pos_recover);
  std::printf("  negative case leans to recovery words     : %s (%d vs %d)\n",
              neg_recover >= neg_worse ? "OK" : "MISMATCH", neg_recover,
              neg_worse);
  return 0;
}
