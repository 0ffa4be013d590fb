#include "core/trainer.h"

#include "common/check.h"
#include "core/attention_mining.h"
#include "core/experiment.h"
#include "gtest/gtest.h"
#include "models/ak_ddn.h"
#include "models/text_cnn.h"
#include "serve/frozen_model.h"

namespace kddn::core {
namespace {

/// Small end-to-end fixture: synthetic NURSING cohort -> dataset.
class CoreTest : public ::testing::Test {
 protected:
  CoreTest() : kb_(kb::KnowledgeBase::BuildDefault()), extractor_(&kb_) {
    synth::CohortConfig config;
    config.num_patients = 340;
    config.seed = 21;
    cohort_ = synth::Cohort::Generate(config, kb_);
    data::DatasetOptions options;
    options.max_words = 96;
    options.max_concepts = 48;
    dataset_ = data::MortalityDataset::Build(cohort_, extractor_, options);
  }

  models::ModelConfig SmallModelConfig() const {
    models::ModelConfig config;
    config.word_vocab_size = dataset_.word_vocab().size();
    config.concept_vocab_size = dataset_.concept_vocab().size();
    config.embedding_dim = 8;
    config.num_filters = 8;
    config.seed = 5;
    return config;
  }

  kb::KnowledgeBase kb_;
  kb::ConceptExtractor extractor_;
  synth::Cohort cohort_;
  data::MortalityDataset dataset_;
};

TEST_F(CoreTest, TrainerImprovesOverChance) {
  models::TextCnn model(SmallModelConfig());
  TrainOptions options;
  options.epochs = 6;
  options.batch_size = 16;
  Trainer trainer(options);
  eval::CurveRecorder curve =
      trainer.Train(&model, dataset_.train(), dataset_.validation(),
                    synth::Horizon::kWithinYear);
  ASSERT_EQ(curve.points().size(), 6u);
  const double test_auc = Trainer::EvaluateAuc(&model, dataset_.test(),
                                               synth::Horizon::kWithinYear);
  EXPECT_GT(test_auc, 0.62) << "Text CNN failed to learn the planted signal";
}

TEST_F(CoreTest, TrainingLossDecreases) {
  models::TextCnn model(SmallModelConfig());
  TrainOptions options;
  options.epochs = 5;
  options.batch_size = 16;
  Trainer trainer(options);
  eval::CurveRecorder curve =
      trainer.Train(&model, dataset_.train(), dataset_.validation(),
                    synth::Horizon::kWithinYear);
  const auto& points = curve.points();
  EXPECT_LT(points.back().train_loss, points.front().train_loss);
}

TEST_F(CoreTest, ScoresAndLabelsAlign) {
  models::TextCnn model(SmallModelConfig());
  const auto scores = Trainer::Scores(&model, dataset_.test());
  const auto labels =
      Trainer::Labels(dataset_.test(), synth::Horizon::kInHospital);
  EXPECT_EQ(scores.size(), dataset_.test().size());
  EXPECT_EQ(labels.size(), dataset_.test().size());
  for (float s : scores) {
    EXPECT_GE(s, 0.0f);
    EXPECT_LE(s, 1.0f);
  }
}

TEST_F(CoreTest, EvaluateAucHandlesDegenerateSplits) {
  models::TextCnn model(SmallModelConfig());
  EXPECT_EQ(Trainer::EvaluateAuc(&model, {}, synth::Horizon::kInHospital),
            0.5);
  // Single-class split.
  std::vector<data::Example> negatives;
  for (const data::Example& example : dataset_.test()) {
    if (!example.Label(synth::Horizon::kInHospital)) {
      negatives.push_back(example);
    }
  }
  EXPECT_EQ(
      Trainer::EvaluateAuc(&model, negatives, synth::Horizon::kInHospital),
      0.5);
}

TEST_F(CoreTest, InvalidTrainOptionsRejected) {
  TrainOptions bad;
  bad.epochs = 0;
  EXPECT_THROW(Trainer{bad}, KddnError);
}

TEST_F(CoreTest, AttentionMiningProducesRankedPairs) {
  models::AkDdn model(SmallModelConfig());
  TrainOptions options;
  options.epochs = 2;
  options.batch_size = 16;
  Trainer trainer(options);
  trainer.Train(&model, dataset_.train(), dataset_.validation(),
                synth::Horizon::kInHospital);

  const data::Example& example = dataset_.test().front();
  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(model);
  const auto word_pairs =
      MineWordBasedPairs(frozen, example, dataset_.word_vocab(),
                         dataset_.concept_vocab(), kb_, 10);
  const auto concept_pairs =
      MineConceptBasedPairs(frozen, example, dataset_.word_vocab(),
                            dataset_.concept_vocab(), kb_, 10);
  ASSERT_FALSE(word_pairs.empty());
  ASSERT_FALSE(concept_pairs.empty());
  for (size_t i = 1; i < word_pairs.size(); ++i) {
    EXPECT_GE(word_pairs[i - 1].weight, word_pairs[i].weight);
  }
  for (const auto& pair : word_pairs) {
    EXPECT_FALSE(pair.cui.empty());
    EXPECT_FALSE(pair.word.empty());
    EXPECT_FALSE(pair.concept_name.empty()) << pair.cui;
    EXPECT_GE(pair.weight, 0.0f);
    EXPECT_LE(pair.weight, 1.0f);
  }
  const std::string table = FormatPairsTable("test", word_pairs);
  EXPECT_NE(table.find(word_pairs[0].cui), std::string::npos);
}

TEST_F(CoreTest, SelectCaseRespectsLabelAndCorrectness) {
  models::AkDdn model(SmallModelConfig());
  TrainOptions options;
  options.epochs = 3;
  options.batch_size = 16;
  Trainer trainer(options);
  trainer.Train(&model, dataset_.train(), dataset_.validation(),
                synth::Horizon::kWithinYear);
  const data::Example* positive = SelectCase(
      &model, dataset_.test(), synth::Horizon::kWithinYear, true);
  const data::Example* negative = SelectCase(
      &model, dataset_.test(), synth::Horizon::kWithinYear, false);
  if (positive != nullptr) {
    EXPECT_TRUE(positive->Label(synth::Horizon::kWithinYear));
    EXPECT_GE(model.PredictPositiveProbability(*positive), 0.5f);
  }
  ASSERT_NE(negative, nullptr);
  EXPECT_FALSE(negative->Label(synth::Horizon::kWithinYear));
  EXPECT_LT(model.PredictPositiveProbability(*negative), 0.5f);
}

TEST_F(CoreTest, RunEvaluationSubset) {
  ExperimentOptions options;
  options.train.epochs = 2;
  options.train.batch_size = 16;
  options.embedding_dim = 8;
  options.num_filters = 8;
  options.lda.num_topics = 10;
  options.lda.train_iterations = 30;
  options.lda.infer_iterations = 10;
  options.methods = {"LDA based word LR", "Text CNN"};
  const auto results = RunEvaluation(dataset_, options);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "LDA based word LR");
  EXPECT_EQ(results[1].name, "Text CNN");
  for (const MethodResult& result : results) {
    for (double auc : result.auc) {
      EXPECT_GT(auc, 0.3) << result.name;
      EXPECT_LE(auc, 1.0) << result.name;
    }
  }
  const std::string table = FormatResultsTable("Table test", results);
  EXPECT_NE(table.find("Text CNN"), std::string::npos);
  EXPECT_NE(table.find("t = 0"), std::string::npos);
}

TEST_F(CoreTest, TrainerRestoresBestValidationEpoch) {
  // After training, the model must be at the epoch with the highest
  // validation AUC, not the final epoch (paper §VII-C model selection).
  models::TextCnn model(SmallModelConfig());
  TrainOptions options;
  options.epochs = 6;
  options.batch_size = 16;
  Trainer trainer(options);
  eval::CurveRecorder curve =
      trainer.Train(&model, dataset_.train(), dataset_.validation(),
                    synth::Horizon::kWithinYear);
  const double restored_auc = Trainer::EvaluateAuc(
      &model, dataset_.validation(), synth::Horizon::kWithinYear);
  EXPECT_NEAR(restored_auc, curve.BestValidationAuc(), 1e-9);
}

TEST_F(CoreTest, AllMethodNamesMatchesPaperRowCount) {
  EXPECT_EQ(AllMethodNames().size(), 11u);  // Tables V/VI have 11 rows.
  for (const std::string& name :
       {"Text CNN", "Concept CNN", "H CNN", "DKGAM", "BK-DDN", "AK-DDN"}) {
    models::ModelConfig config;
    config.word_vocab_size = 10;
    config.concept_vocab_size = 10;
    config.embedding_dim = 4;
    config.num_filters = 2;
    EXPECT_NE(MakeDeepModel(name, config), nullptr) << name;
  }
  models::ModelConfig config;
  config.word_vocab_size = 10;
  config.concept_vocab_size = 10;
  EXPECT_THROW(MakeDeepModel("No Such Model", config), KddnError);
}

}  // namespace
}  // namespace kddn::core

#include <sstream>

#include <cstdio>
#include <fstream>
#include "core/attention_html.h"

namespace kddn::core {
namespace {

TEST(EscapeHtmlTest, EscapesEntities) {
  EXPECT_EQ(EscapeHtml("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
  EXPECT_EQ(EscapeHtml("plain"), "plain");
}

TEST_F(CoreTest, AttentionHtmlExport) {
  models::AkDdn model(SmallModelConfig());
  const data::Example& example = dataset_.test().front();
  std::ostringstream out;
  WriteAttentionHtml(serve::FrozenModel::Freeze(model), example,
                     dataset_.word_vocab(), dataset_.concept_vocab(), kb_,
                     out);
  const std::string html = out.str();
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("patient " + std::to_string(example.patient_id)),
            std::string::npos);
  // Every word and concept of the example appears.
  EXPECT_NE(html.find(dataset_.word_vocab().TokenOf(example.word_ids[0])),
            std::string::npos);
  EXPECT_NE(
      html.find(dataset_.concept_vocab().TokenOf(example.concept_ids[0])),
      std::string::npos);
  EXPECT_NE(html.find("</html>"), std::string::npos);
  // Well-formed-ish: as many <tr> as </tr>.
  size_t open = 0, close = 0;
  for (size_t pos = html.find("<tr>"); pos != std::string::npos;
       pos = html.find("<tr>", pos + 1)) {
    ++open;
  }
  for (size_t pos = html.find("</tr>"); pos != std::string::npos;
       pos = html.find("</tr>", pos + 1)) {
    ++close;
  }
  EXPECT_EQ(open, close);
  EXPECT_GT(open, 2u);
}

TEST_F(CoreTest, AttentionHtmlFileWrapper) {
  models::AkDdn model(SmallModelConfig());
  const std::string path = ::testing::TempDir() + "/attention.html";
  WriteAttentionHtmlFile(serve::FrozenModel::Freeze(model),
                         dataset_.test().front(),
                         dataset_.word_vocab(), dataset_.concept_vocab(),
                         kb_, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_NE(first_line.find("<!DOCTYPE html>"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kddn::core
