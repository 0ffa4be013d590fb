#include "models/ak_ddn.h"

#include <cmath>

#include "autograd/ops.h"
#include "tensor/tensor_ops.h"
#include "common/check.h"
#include "gtest/gtest.h"
#include "models/bk_ddn.h"
#include "models/dkgam.h"
#include "models/h_cnn.h"
#include "models/text_cnn.h"
#include "serve/frozen_model.h"

namespace kddn::models {
namespace {

ModelConfig SmallConfig() {
  ModelConfig config;
  config.word_vocab_size = 30;
  config.concept_vocab_size = 12;
  config.embedding_dim = 6;
  config.num_filters = 4;
  config.seed = 3;
  return config;
}

data::Example SmallExample() {
  data::Example example;
  example.word_ids = {2, 5, 7, 2, 9, 11, 3, 4};
  example.concept_ids = {2, 4, 3};
  example.labels = {true, true, true};
  return example;
}

/// Checks logits shape, finiteness, and that gradients reach every parameter
/// tensor after one backward pass.
void CheckModelBasics(NeuralDocumentModel* model,
                      const data::Example& example) {
  nn::ForwardContext ctx;
  ctx.training = false;
  ag::NodePtr logits = model->Logits(example, ctx);
  ASSERT_EQ(logits->value().rank(), 1);
  ASSERT_EQ(logits->value().dim(0), 2);
  for (int j = 0; j < 2; ++j) {
    EXPECT_FALSE(std::isnan(logits->value().at(j)));
  }

  model->params().ZeroGrads();
  ag::Backward(ag::SoftmaxCrossEntropy(model->Logits(example, ctx), 1));
  int touched = 0;
  for (const ag::NodePtr& param : model->params().all()) {
    float norm = 0.0f;
    for (int64_t i = 0; i < param->grad().size(); ++i) {
      norm += std::fabs(param->grad()[i]);
    }
    touched += norm > 0.0f ? 1 : 0;
  }
  // Embedding tables only receive gradient at used rows; all weight matrices
  // should be touched.
  EXPECT_GE(touched, static_cast<int>(model->params().all().size()) - 1);

  const float prob = model->PredictPositiveProbability(example);
  EXPECT_GE(prob, 0.0f);
  EXPECT_LE(prob, 1.0f);
}

TEST(TextCnnTest, BasicsAndRepresentation) {
  TextCnn model(SmallConfig());
  CheckModelBasics(&model, SmallExample());
}

TEST(ConceptCnnTest, BasicsAndRepresentation) {
  ConceptCnn model(SmallConfig());
  CheckModelBasics(&model, SmallExample());
}

/// Pooled features of one frozen forward (serve/frozen_model.h, Workspace
/// feature contract): [1, 24] = word half then concept half, 4 filters x 3
/// widths each.
Tensor FusedFeatures(const serve::FrozenModel& frozen,
                     const data::Example& example) {
  serve::FrozenModel::Workspace ws;
  frozen.Logits(example, &ws);
  return ws.fused;
}

TEST(BkDdnTest, BasicsAndRepresentations) {
  BkDdn model(SmallConfig());
  CheckModelBasics(&model, SmallExample());
  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(model);
  const Tensor joint = FusedFeatures(frozen, SmallExample());
  ASSERT_EQ(joint.dim(0), 1);
  ASSERT_EQ(joint.dim(1), 24);
  // Joint is the concatenation of two independent branches: new concepts
  // leave the word half bitwise unchanged and move the concept half.
  data::Example other = SmallExample();
  other.concept_ids = {5, 6};
  const Tensor other_joint = FusedFeatures(frozen, other);
  bool concept_half_moved = false;
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(other_joint.at(0, i), joint.at(0, i)) << i;
    concept_half_moved = concept_half_moved ||
                         other_joint.at(0, 12 + i) != joint.at(0, 12 + i);
  }
  EXPECT_TRUE(concept_half_moved);
}

TEST(AkDdnTest, BasicsAndAttention) {
  AkDdn model(SmallConfig());
  const data::Example example = SmallExample();
  CheckModelBasics(&model, example);

  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(model);
  serve::FrozenModel::Workspace ws;
  frozen.Logits(example, &ws);
  ASSERT_EQ(ws.word_to_concept.dim(0), 8);
  ASSERT_EQ(ws.word_to_concept.dim(1), 3);
  ASSERT_EQ(ws.concept_to_word.dim(0), 3);
  ASSERT_EQ(ws.concept_to_word.dim(1), 8);
  // Attention rows are distributions.
  for (int i = 0; i < 8; ++i) {
    float total = 0.0f;
    for (int j = 0; j < 3; ++j) {
      total += ws.word_to_concept.at(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
  for (int i = 0; i < 3; ++i) {
    float total = 0.0f;
    for (int j = 0; j < 8; ++j) {
      total += ws.concept_to_word.at(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(AkDdnTest, ResidualAblationChangesConvWidth) {
  ModelConfig config = SmallConfig();
  config.akddn_residual = true;
  AkDdn model(config);
  CheckModelBasics(&model, SmallExample());
}

TEST(AkDdnTest, RepresentationsMatchBranchOutputs) {
  AkDdn model(SmallConfig());
  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(model);
  const Tensor joint = FusedFeatures(frozen, SmallExample());
  ASSERT_EQ(joint.dim(1), 24);
  // The pooled features are the classifier's input: the dense layer applied
  // to them gives the graph forward's logits.
  nn::ForwardContext ctx;
  ctx.training = false;
  const Tensor logits = model.Logits(SmallExample(), ctx)->value();
  const Tensor& weight = model.params().Get("cls.weight")->value();
  const Tensor& bias = model.params().Get("cls.bias")->value();
  for (int j = 0; j < 2; ++j) {
    float total = bias[j];
    for (int k = 0; k < 24; ++k) {
      EXPECT_GE(joint.at(0, k), 0.0f);  // ReLU, then max-over-time.
      total += joint.at(0, k) * weight.at(k, j);
    }
    EXPECT_NEAR(total, logits[j], 1e-5f);
  }
}

TEST(HCnnTest, HandlesShortAndLongDocuments) {
  HCnn model(SmallConfig(), /*chunk_size=*/4);
  data::Example example = SmallExample();
  CheckModelBasics(&model, example);
  // Single-token document: one chunk of length 1, padded inside the bank.
  example.word_ids = {5};
  CheckModelBasics(&model, example);
  // Long document: many chunks.
  example.word_ids.assign(37, 3);
  CheckModelBasics(&model, example);
}

TEST(DkgamTest, Basics) {
  Dkgam model(SmallConfig());
  CheckModelBasics(&model, SmallExample());
}

TEST(ModelTest, EmptyInputsRejected) {
  TextCnn text(SmallConfig());
  AkDdn akddn(SmallConfig());
  nn::ForwardContext ctx;
  data::Example no_words = SmallExample();
  no_words.word_ids.clear();
  EXPECT_THROW(text.Logits(no_words, ctx), KddnError);
  EXPECT_THROW(akddn.Logits(no_words, ctx), KddnError);
  data::Example no_concepts = SmallExample();
  no_concepts.concept_ids.clear();
  EXPECT_THROW(akddn.Logits(no_concepts, ctx), KddnError);
}

TEST(ModelTest, DeterministicInference) {
  AkDdn model(SmallConfig());
  const data::Example example = SmallExample();
  const float a = model.PredictPositiveProbability(example);
  const float b = model.PredictPositiveProbability(example);
  EXPECT_EQ(a, b);
}

TEST(ModelTest, TrainingDropoutIsStochastic) {
  ModelConfig config = SmallConfig();
  config.dropout = 0.5f;
  TextCnn model(config);
  Rng rng(7);
  nn::ForwardContext ctx;
  ctx.training = true;
  ctx.rng = &rng;
  const data::Example example = SmallExample();
  const Tensor a = model.Logits(example, ctx)->value();
  const Tensor b = model.Logits(example, ctx)->value();
  // With dropout active, two training passes almost surely differ.
  EXPECT_GT(MaxAbsDiff(a, b), 0.0f);
}

TEST(ModelTest, ParameterCountsAreSane) {
  ModelConfig config = SmallConfig();
  TextCnn text(config);
  BkDdn bk(config);
  config.akddn_residual = false;
  AkDdn ak_plain(config);
  config.akddn_residual = true;
  AkDdn ak_residual(config);
  // Dual networks hold both branches' parameters.
  EXPECT_GT(bk.params().TotalWeights(), text.params().TotalWeights());
  // Without residual embeddings AK-DDN adds no parameters over BK-DDN
  // (ATTI is parameter-free); the residual variant widens the conv banks.
  EXPECT_EQ(ak_plain.params().TotalWeights(), bk.params().TotalWeights());
  EXPECT_GT(ak_residual.params().TotalWeights(), bk.params().TotalWeights());
}

}  // namespace
}  // namespace kddn::models

#include "models/gru.h"

namespace kddn::models {
namespace {

TEST(GruTest, BasicsAndTruncation) {
  GruModel model(SmallConfig(), /*hidden_dim=*/5, /*max_steps=*/6);
  CheckModelBasics(&model, SmallExample());
  EXPECT_EQ(model.hidden_dim(), 5);
  // Longer-than-max_steps documents are truncated, not rejected.
  data::Example long_doc = SmallExample();
  long_doc.word_ids.assign(40, 3);
  CheckModelBasics(&model, long_doc);
  // Single-token documents work (forward only: with h0 = 0 the recurrent
  // U matrices and reset gate legitimately receive no gradient after a
  // single step, so the full gradient-coverage check does not apply).
  data::Example one = SmallExample();
  one.word_ids = {2};
  nn::ForwardContext ctx;
  ag::NodePtr logits = model.Logits(one, ctx);
  ASSERT_EQ(logits->value().dim(0), 2);
  EXPECT_FALSE(std::isnan(logits->value().at(0)));
}

TEST(GruTest, HiddenStateDependsOnOrder) {
  GruModel model(SmallConfig(), 5, 16);
  data::Example forward = SmallExample();
  data::Example reversed = forward;
  std::reverse(reversed.word_ids.begin(), reversed.word_ids.end());
  // A recurrent model (unlike max-pooled CNN features) is order-sensitive.
  EXPECT_NE(model.PredictPositiveProbability(forward),
            model.PredictPositiveProbability(reversed));
}

TEST(GruTest, InvalidConfigThrows) {
  EXPECT_THROW(GruModel(SmallConfig(), 0, 8), KddnError);
  EXPECT_THROW(GruModel(SmallConfig(), 8, 0), KddnError);
}

}  // namespace
}  // namespace kddn::models

#include "tensor/tensor_ops.h"
#include "testing/grad_check.h"
#include "testing/gradient_check.h"

namespace kddn::models {
namespace {

TEST(AttiGradCheck, CoAttentionOpsMatchFiniteDifference) {
  // Tight (rel. error < 1e-3) finite-difference check of the ATTI
  // co-attention ops exactly as AK-DDN composes them: both directions
  // (words->concepts and concepts->words), through the row-softmax and the
  // value mixing.
  Rng rng(17);
  ag::NodePtr words =
      ag::Node::Leaf(RandomNormal({5, 4}, 0, 1, &rng), true, "words");
  ag::NodePtr concepts =
      ag::Node::Leaf(RandomNormal({3, 4}, 0, 1, &rng), true, "concepts");
  kddn::testing::GradCheckOptions options;
  options.epsilon = 5e-3f;
  kddn::testing::ExpectGradCheck(
      [&] {
        nn::AttiResult ic = nn::Atti(words, concepts);
        nn::AttiResult iw = nn::Atti(concepts, words);
        // Quadratic readout so attention weights get nontrivial gradients.
        return ag::Add(ag::MeanAll(ag::Mul(ic.output, ic.output)),
                       ag::MeanAll(ag::Mul(iw.output, iw.output)));
      },
      {words, concepts}, options);
}

TEST(ConvBankGradCheck, CnnBlockMatchesFiniteDifference) {
  // The paper's CNN block (multi-width conv -> ReLU -> max-over-time ->
  // concat) end to end into softmax cross-entropy, rel. error < 1e-3.
  // Inputs are O(1) so pre-activations sit away from the ReLU/max kinks
  // where central differences are meaningless.
  Rng rng(19);
  nn::ParameterSet params;
  nn::Conv1dBank conv(&params, "conv", /*input_dim=*/4, /*num_filters=*/3,
                      {1, 2, 3}, &rng);
  nn::Dense readout(&params, "readout", conv.output_dim(), 2, &rng);
  ag::NodePtr x = ag::Node::Leaf(RandomNormal({6, 4}, 0, 1, &rng), true, "x");
  std::vector<ag::NodePtr> leaves = params.all();
  leaves.push_back(x);
  kddn::testing::GradCheckOptions options;
  options.epsilon = 5e-3f;
  kddn::testing::ExpectGradCheck(
      [&] {
        return ag::SoftmaxCrossEntropy(readout.Forward(conv.Forward(x)), 0);
      },
      leaves, options);
}

TEST(AkDdnGradCheck, FullModelLossMatchesFiniteDifference) {
  // Whole AK-DDN forward graph (embeddings -> co-attention -> dual CNNs ->
  // classifier -> softmax cross-entropy) against central differences. The
  // N(0, 0.1) embedding init leaves pre-activations hugging the ReLU kink,
  // so scale the parameters to a well-conditioned point first; the check
  // verifies the backward implementation at that point.
  ModelConfig config = SmallConfig();
  config.embedding_dim = 4;
  config.num_filters = 2;
  AkDdn model(config);
  for (const ag::NodePtr& param : model.params().all()) {
    Tensor& value = param->mutable_value();
    for (int64_t i = 0; i < value.size(); ++i) {
      value[i] *= 4.0f;
    }
  }
  data::Example example = SmallExample();
  nn::ForwardContext ctx;  // Inference mode: deterministic for FD.
  kddn::testing::GradCheckOptions options;
  options.epsilon = 5e-3f;
  kddn::testing::ExpectGradCheck(
      [&] { return ag::SoftmaxCrossEntropy(model.Logits(example, ctx), 1); },
      model.params().all(), options);
}

TEST(GruTest, GradCheckThroughRecurrence) {
  // Finite-difference check through the full unrolled GRU (3 steps, tiny
  // dims) — covers every gate parameter end to end.
  ModelConfig config;
  config.word_vocab_size = 8;
  config.concept_vocab_size = 4;
  config.embedding_dim = 3;
  config.num_filters = 2;
  config.seed = 13;
  GruModel model(config, /*hidden_dim=*/3, /*max_steps=*/8);
  data::Example example;
  example.word_ids = {2, 5, 3};
  example.concept_ids = {2};
  nn::ForwardContext ctx;  // Inference mode: deterministic for FD.
  kddn::testing::ExpectGradientsMatchFiniteDifference(
      [&] {
        return ag::SoftmaxCrossEntropy(model.Logits(example, ctx), 1);
      },
      model.params().all(), 1e-2f, 4e-2f);
}

}  // namespace
}  // namespace kddn::models
