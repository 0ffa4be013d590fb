// Input-pipeline and evaluation-path suite (DESIGN.md §10, §14): the
// dataset build must reproduce the committed serial-build golden at every
// pool size, BatchAssembler must hand the trainer exactly the batches direct
// slicing would, job-graph training must reproduce the committed legacy
// fork/join weight and curve goldens at every thread count (including
// across checkpoint/resume), inference-mode graphs must carry bitwise-
// identical values with no tape, the fused gradient-free evaluation must
// reproduce the committed two-pass curve goldens, and a frozen forward's
// Workspace must hold the committed co-attention map and pooled-feature
// goldens at every pool size. Labelled `pipeline`
// and `sanitize` — the whole suite runs under TSan; the golden tests also
// run under KDDN_FORCE_SCALAR_GEMM=1 (ctest pipeline_test_forced_scalar).
//
// The k*Golden constants below were recorded once from the reference paths
// these goldens replaced (the legacy fork/join trainer with inline batch
// assembly, the two-pass validation — one loss sweep, then a separate AUC
// sweep — the serial dataset build loop, and the graph-side feature forwards
// AkDdn::Attend/Represent and BkDdn::Represent). A mismatch is a determinism
// bug to fix in the program, never a constant to re-record.
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "autograd/node.h"
#include "autograd/ops.h"
#include "common/check.h"
#include "common/fnv1a.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/batch_assembler.h"
#include "core/experiment.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "gtest/gtest.h"
#include "kb/concept_extractor.h"
#include "kb/knowledge_base.h"
#include "models/ak_ddn.h"
#include "models/bk_ddn.h"
#include "serve/frozen_model.h"
#include "synth/cohort.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace kddn {
namespace {

/// Restores the process-wide pool size on scope exit.
struct PoolSizeGuard {
  int previous = GlobalThreadPoolSize();
  ~PoolSizeGuard() { SetGlobalThreadPoolSize(previous); }
};

std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "kddn_pipeline_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Golden fingerprints: FNV-1a (common/fnv1a.h) over a fixed byte order —
// little-endian object bytes, containers prefixed by their u64 length.
// ---------------------------------------------------------------------------

static_assert(std::endian::native == std::endian::little,
              "golden fingerprints hash little-endian object bytes");

class Fingerprint {
 public:
  template <typename T>
  void Add(const T& value) {
    static_assert(std::is_arithmetic_v<T>);
    state_ = Fnv1a(&value, sizeof(T), state_);
  }
  template <typename T>
  void AddVector(const std::vector<T>& values) {
    Add<uint64_t>(values.size());
    for (const T& value : values) {
      Add(value);
    }
  }
  void AddString(const std::string& text) {
    Add<uint64_t>(text.size());
    state_ = Fnv1a(text.data(), text.size(), state_);
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = kFnv1aOffsetBasis;
};

/// Every parameter's floats in registration order, no framing: exactly the
/// bytes serve::FrozenModel fingerprints for a servable model.
uint64_t WeightsFingerprint(const std::vector<Tensor>& params) {
  uint64_t state = kFnv1aOffsetBasis;
  for (const Tensor& param : params) {
    state = Fnv1a(param.data(), param.size() * sizeof(float), state);
  }
  return state;
}

uint64_t CurveFingerprint(const std::vector<eval::CurvePoint>& curve) {
  Fingerprint fp;
  fp.Add<uint64_t>(curve.size());
  for (const eval::CurvePoint& point : curve) {
    fp.Add(point.epoch);
    fp.Add(point.train_loss);
    fp.Add(point.validation_loss);
    fp.Add(point.validation_auc);
  }
  return fp.value();
}

void AddVocab(const text::Vocabulary& vocab, Fingerprint* fp) {
  fp->Add(vocab.size());
  for (int id = 0; id < vocab.size(); ++id) {
    fp->AddString(vocab.TokenOf(id));
    fp->Add(vocab.Frequency(id));
  }
}

void AddSplit(const std::vector<data::Example>& split, Fingerprint* fp) {
  fp->Add<uint64_t>(split.size());
  for (const data::Example& example : split) {
    fp->Add(example.patient_id);
    fp->AddVector(example.word_ids);
    fp->AddVector(example.concept_ids);
    for (const bool label : example.labels) {
      fp->Add(label);
    }
  }
}

/// Every field ParallelDatasetBuildTest compares, in a fixed order.
uint64_t DatasetFingerprint(const data::MortalityDataset& dataset) {
  Fingerprint fp;
  AddVocab(dataset.word_vocab(), &fp);
  AddVocab(dataset.concept_vocab(), &fp);
  AddSplit(dataset.train(), &fp);
  AddSplit(dataset.validation(), &fp);
  AddSplit(dataset.test(), &fp);
  fp.Add(dataset.excluded_zero_concept());
  fp.Add(dataset.num_patients());
  fp.Add(dataset.WordStats().mean);
  fp.Add(dataset.WordStats().stddev);
  fp.Add(dataset.ConceptStats().mean);
  fp.Add(dataset.ConceptStats().stddev);
  for (synth::Horizon horizon : synth::kAllHorizons) {
    fp.Add(dataset.CountPositive(horizon));
  }
  return fp.value();
}

// Serial-loop build of the 90-patient cohort below.
constexpr uint64_t kSerialBuildGolden = 0x536e562190684bdbULL;
// BK-DDN on TrainingPipelineTest's fixture with BaseOptions(), trained by
// the legacy fork/join loop with inline assembly; the two-pass eval run
// gives the same weights and curve.
constexpr uint64_t kBkDdnWeightsGolden = 0x642d9780bab4c95cULL;
constexpr uint64_t kBkDdnCurveGolden = 0x97655aef3b6dc972ULL;
// Text CNN with BaseOptions() under the two-pass validation.
constexpr uint64_t kTextCnnWeightsGolden = 0x8d7caca3e41a33bcULL;
constexpr uint64_t kTextCnnCurveGolden = 0xe2d48c460b18123fULL;
// Untrained BK-DDN / AK-DDN features on TrainingPipelineTest's fixture
// (embedding_dim 20, 32 filters), recorded from the deleted graph-side
// feature forwards: AkDdn::Attend's two co-attention maps and
// AkDdn/BkDdn::Represent's joint pooled vector, per example, each hashed as
// its u64 element count then its floats.
constexpr uint64_t kBkDdnFeaturesGolden = 0x5dd1f602bf1656a3ULL;
constexpr uint64_t kAkDdnFeaturesGolden = 0x273ba0df5fb95671ULL;

void ExpectSameExamples(const std::vector<data::Example>& actual,
                        const std::vector<data::Example>& expected,
                        const std::string& split) {
  ASSERT_EQ(actual.size(), expected.size()) << split;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].patient_id, expected[i].patient_id)
        << split << " example " << i;
    EXPECT_EQ(actual[i].word_ids, expected[i].word_ids)
        << split << " example " << i;
    EXPECT_EQ(actual[i].concept_ids, expected[i].concept_ids)
        << split << " example " << i;
    EXPECT_EQ(actual[i].labels, expected[i].labels)
        << split << " example " << i;
  }
}

void ExpectSameVocab(const text::Vocabulary& actual,
                     const text::Vocabulary& expected,
                     const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (int id = 0; id < expected.size(); ++id) {
    EXPECT_EQ(actual.TokenOf(id), expected.TokenOf(id)) << what << " id " << id;
    EXPECT_EQ(actual.Frequency(id), expected.Frequency(id))
        << what << " id " << id;
  }
}

// ---------------------------------------------------------------------------
// Parallel dataset build: byte-identical to the serial reference.
// ---------------------------------------------------------------------------

TEST(ParallelDatasetBuildTest, MatchesSerialByteForByteAtEveryPoolSize) {
  PoolSizeGuard guard;
  const kb::KnowledgeBase kb = kb::KnowledgeBase::BuildDefault();
  const kb::ConceptExtractor extractor(&kb);
  synth::CohortConfig cohort_config;
  cohort_config.num_patients = 90;
  cohort_config.seed = 37;
  const synth::Cohort cohort = synth::Cohort::Generate(cohort_config, kb);

  data::DatasetOptions options;
  options.max_words = 48;
  options.max_concepts = 24;
  // Pool size 1 runs every job inline in graph order: the serial loop.
  SetGlobalThreadPoolSize(1);
  const data::MortalityDataset serial =
      data::MortalityDataset::Build(cohort, extractor, options);
  EXPECT_EQ(DatasetFingerprint(serial), kSerialBuildGolden);

  for (const int pool_size : {2, 4}) {
    SetGlobalThreadPoolSize(pool_size);
    const data::MortalityDataset parallel =
        data::MortalityDataset::Build(cohort, extractor, options);
    const std::string tag = "pool=" + std::to_string(pool_size);
    EXPECT_EQ(parallel.excluded_zero_concept(), serial.excluded_zero_concept())
        << tag;
    EXPECT_EQ(parallel.num_patients(), serial.num_patients()) << tag;
    ExpectSameVocab(parallel.word_vocab(), serial.word_vocab(),
                    tag + " word vocab");
    ExpectSameVocab(parallel.concept_vocab(), serial.concept_vocab(),
                    tag + " concept vocab");
    ExpectSameExamples(parallel.train(), serial.train(), tag + " train");
    ExpectSameExamples(parallel.validation(), serial.validation(),
                       tag + " validation");
    ExpectSameExamples(parallel.test(), serial.test(), tag + " test");
    // The raw count vectors behind the moments must merge in patient order.
    EXPECT_EQ(parallel.WordStats().mean, serial.WordStats().mean) << tag;
    EXPECT_EQ(parallel.WordStats().stddev, serial.WordStats().stddev) << tag;
    EXPECT_EQ(parallel.ConceptStats().mean, serial.ConceptStats().mean) << tag;
    EXPECT_EQ(parallel.ConceptStats().stddev, serial.ConceptStats().stddev)
        << tag;
    for (synth::Horizon horizon : synth::kAllHorizons) {
      EXPECT_EQ(parallel.CountPositive(horizon), serial.CountPositive(horizon))
          << tag;
    }
    EXPECT_EQ(DatasetFingerprint(parallel), kSerialBuildGolden) << tag;
  }
}

// ---------------------------------------------------------------------------
// BatchAssembler: exactly the batches direct slicing would produce.
// ---------------------------------------------------------------------------

std::vector<data::Example> TinyExamples(int count) {
  std::vector<data::Example> examples;
  for (int i = 0; i < count; ++i) {
    data::Example example;
    example.patient_id = 100 + i;
    example.word_ids = {1 + i % 3, 2, 5};
    example.concept_ids = {1, 2 + i % 2};
    example.labels = {i % 2 == 0, i % 3 == 0, true};
    examples.push_back(std::move(example));
  }
  return examples;
}

TEST(BatchAssemblerTest, BatchesMatchDirectSlicing) {
  const std::vector<data::Example> examples = TinyExamples(10);
  core::BatchAssembler::Options options;
  options.batch_size = 4;
  options.chunk_size = 2;
  options.seed = 77;
  options.horizon = synth::Horizon::kWithin30Days;
  const core::BatchAssembler assembler(&examples, options);

  // Two epochs with different orders; a batch is a pure function of
  // (order, epoch, index), so slots can be (re)filled in any sequence.
  std::vector<int> forward(10), reversed(10);
  for (int i = 0; i < 10; ++i) {
    forward[i] = i;
    reversed[i] = 9 - i;
  }
  const std::vector<const std::vector<int>*> orders = {&forward, &reversed};

  core::PreparedBatch batch;
  for (int epoch = 1; epoch <= 2; ++epoch) {
    const std::vector<int>& order = *orders[epoch - 1];
    ASSERT_EQ(assembler.BatchesPerEpoch(order.size()), 3u);
    for (size_t index = 0; index < 3; ++index) {
      // Reuse one slot across every call, as the trainer's double buffer
      // does: AssembleInto must fully overwrite the previous batch.
      assembler.AssembleInto(&batch, &order, epoch, index);
      const size_t begin = index * options.batch_size;
      const size_t end = std::min<size_t>(10, begin + options.batch_size);
      const std::string tag = "epoch=" + std::to_string(epoch) +
                              " batch=" + std::to_string(index);
      EXPECT_EQ(batch.epoch, epoch) << tag;
      EXPECT_EQ(batch.begin, begin) << tag;
      ASSERT_EQ(batch.size, end - begin) << tag;
      EXPECT_EQ(batch.num_chunks, (batch.size + 1) / 2) << tag;
      EXPECT_EQ(batch.inv_batch, 1.0f / static_cast<float>(batch.size))
          << tag;
      ASSERT_EQ(batch.examples.size(), batch.size) << tag;
      ASSERT_EQ(batch.dropout_seeds.size(), batch.size) << tag;
      ASSERT_EQ(batch.labels.size(), batch.size) << tag;
      for (size_t j = 0; j < batch.size; ++j) {
        const data::Example& expected = examples[order[begin + j]];
        EXPECT_EQ(batch.examples[j], &expected) << tag << " slot " << j;
        EXPECT_EQ(batch.dropout_seeds[j],
                  core::MixDropoutSeed(options.seed, epoch, begin + j))
            << tag << " slot " << j;
        EXPECT_EQ(batch.labels[j],
                  expected.Label(options.horizon) ? 1 : 0)
            << tag << " slot " << j;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Inference mode: bitwise values, no tape.
// ---------------------------------------------------------------------------

TEST(InferenceModeTest, ValuesBitwiseEqualWithNoTapeAndBackwardRefused) {
  Rng rng(99);
  const Tensor init = RandomNormal({6, 4}, 0, 0.5f, &rng);
  const std::vector<int> ids = {0, 3, 3, 5};

  ag::NodePtr graph_table = ag::Node::Leaf(init, true, "emb.table");
  const ag::NodePtr graph_loss =
      ag::MeanAll(ag::Mul(ag::EmbeddingLookup(graph_table, ids),
                          ag::EmbeddingLookup(graph_table, ids)));
  EXPECT_FALSE(graph_loss->parents().empty());

  ag::NodePtr inference_loss;
  {
    ag::InferenceModeScope inference;
    EXPECT_TRUE(ag::InferenceModeEnabled());
    ag::NodePtr table = ag::Node::Leaf(init, true, "emb.table");
    inference_loss = ag::MeanAll(ag::Mul(ag::EmbeddingLookup(table, ids),
                                         ag::EmbeddingLookup(table, ids)));
  }
  EXPECT_FALSE(ag::InferenceModeEnabled());

  // Same arithmetic, same bits — only tape retention differs.
  EXPECT_EQ(ag::ScalarValue(inference_loss), ag::ScalarValue(graph_loss));
  EXPECT_TRUE(inference_loss->parents().empty());
  EXPECT_FALSE(inference_loss->requires_grad());
  EXPECT_THROW(ag::Backward(inference_loss), KddnError);
}

// ---------------------------------------------------------------------------
// End-to-end training goldens: the job graph, assembly overlap, thread
// count, and fused eval change wall-clock only — never a trained bit.
// ---------------------------------------------------------------------------

class TrainingPipelineTest : public ::testing::Test {
 protected:
  TrainingPipelineTest()
      : kb_(kb::KnowledgeBase::BuildDefault()), extractor_(&kb_) {
    synth::CohortConfig config;
    config.num_patients = 120;
    config.seed = 91;
    cohort_ = synth::Cohort::Generate(config, kb_);
    data::DatasetOptions options;
    options.max_words = 48;
    options.max_concepts = 24;
    dataset_ = data::MortalityDataset::Build(cohort_, extractor_, options);
  }

  models::ModelConfig ModelConfigForDataset() const {
    models::ModelConfig config;
    config.word_vocab_size = dataset_.word_vocab().size();
    config.concept_vocab_size = dataset_.concept_vocab().size();
    config.embedding_dim = 6;
    config.num_filters = 4;
    config.seed = 17;
    return config;
  }

  struct RunResult {
    std::vector<Tensor> params;
    std::vector<eval::CurvePoint> curve;
    std::optional<uint64_t> frozen_fingerprint;  // Servable models only.
  };

  RunResult TrainOnce(const std::string& model_name,
                      const core::TrainOptions& options) {
    std::unique_ptr<models::NeuralDocumentModel> model =
        core::MakeDeepModel(model_name, ModelConfigForDataset());
    core::Trainer trainer(options);
    const eval::CurveRecorder recorder =
        trainer.Train(model.get(), dataset_.train(), dataset_.validation(),
                      synth::Horizon::kInHospital);
    RunResult result;
    for (const ag::NodePtr& param : model->params().all()) {
      result.params.push_back(param->value());
    }
    result.curve = recorder.points();
    if (model_name == "BK-DDN" || model_name == "AK-DDN") {
      result.frozen_fingerprint =
          serve::FrozenModel::Freeze(*model).fingerprint();
    }
    return result;
  }

  /// Trains `model_name` at 1, 2, and 4 threads: every run must match the
  /// goldens and, field by field for readable failures, the 1-thread run.
  /// For a servable model the weights golden must also equal the
  /// FrozenModel snapshot fingerprint.
  void ExpectGoldenAtEveryThreadCount(const std::string& model_name,
                                      uint64_t weights_golden,
                                      uint64_t curve_golden) {
    RunResult reference;
    for (const int threads : {1, 2, 4}) {
      core::TrainOptions options = BaseOptions();
      options.num_threads = threads;
      RunResult run = TrainOnce(model_name, options);
      const std::string tag =
          model_name + " threads=" + std::to_string(threads);
      EXPECT_EQ(WeightsFingerprint(run.params), weights_golden) << tag;
      EXPECT_EQ(CurveFingerprint(run.curve), curve_golden) << tag;
      if (run.frozen_fingerprint.has_value()) {
        EXPECT_EQ(*run.frozen_fingerprint, weights_golden) << tag;
      }
      if (threads == 1) {
        reference = std::move(run);
      } else {
        ExpectSameRun(run, reference, tag);
      }
    }
  }

  static core::TrainOptions BaseOptions() {
    core::TrainOptions options;
    options.epochs = 3;
    options.batch_size = 16;
    options.seed = 13;
    options.num_threads = 1;
    return options;
  }

  static void ExpectSameRun(const RunResult& actual, const RunResult& expected,
                            const std::string& tag) {
    ASSERT_EQ(actual.params.size(), expected.params.size()) << tag;
    for (size_t i = 0; i < actual.params.size(); ++i) {
      ASSERT_TRUE(actual.params[i].SameShape(expected.params[i])) << tag;
      EXPECT_EQ(std::memcmp(actual.params[i].data(), expected.params[i].data(),
                            actual.params[i].size() * sizeof(float)),
                0)
          << tag << " param " << i;
    }
    ASSERT_EQ(actual.curve.size(), expected.curve.size()) << tag;
    for (size_t i = 0; i < actual.curve.size(); ++i) {
      EXPECT_EQ(actual.curve[i].epoch, expected.curve[i].epoch) << tag;
      EXPECT_EQ(actual.curve[i].train_loss, expected.curve[i].train_loss)
          << tag << " epoch " << i + 1;
      EXPECT_EQ(actual.curve[i].validation_loss,
                expected.curve[i].validation_loss)
          << tag << " epoch " << i + 1;
      EXPECT_EQ(actual.curve[i].validation_auc,
                expected.curve[i].validation_auc)
          << tag << " epoch " << i + 1;
    }
  }

  kb::KnowledgeBase kb_;
  kb::ConceptExtractor extractor_;
  synth::Cohort cohort_;
  data::MortalityDataset dataset_;
};

TEST_F(TrainingPipelineTest, JobGraphWeightsMatchLegacyForkJoinGolden) {
  ExpectGoldenAtEveryThreadCount("BK-DDN", kBkDdnWeightsGolden,
                                 kBkDdnCurveGolden);
}

TEST_F(TrainingPipelineTest, FusedEvalCurvesMatchTwoPassBitwise) {
  // Text CNN exercises the generic inference-mode graph route: it must
  // reproduce the two-pass curve (and, through best-epoch selection, its
  // final weights) exactly. BK-DDN's frozen-snapshot route is covered by
  // JobGraphWeightsMatchLegacyForkJoinGolden: its two-pass run recorded the
  // same weights and curve as the legacy run, so one golden pins both.
  ExpectGoldenAtEveryThreadCount("Text CNN", kTextCnnWeightsGolden,
                                 kTextCnnCurveGolden);
}

TEST_F(TrainingPipelineTest, ResumeMidRunWithPrefetchIsBitwiseExact) {
  // Batch k+1's assembly overlaps step k in the graph; the resumed run must
  // still consume the uninterrupted run's exact batch stream.
  core::TrainOptions straight = BaseOptions();
  straight.num_threads = 4;
  const RunResult golden = TrainOnce("BK-DDN", straight);
  EXPECT_EQ(WeightsFingerprint(golden.params), kBkDdnWeightsGolden);

  // Interrupted twin: stop after epoch 2, then resume to the full horizon.
  core::TrainOptions interrupted = straight;
  interrupted.checkpoint_dir = ScratchDir("resume");
  interrupted.epochs = 2;
  TrainOnce("BK-DDN", interrupted);
  interrupted.epochs = straight.epochs;
  interrupted.resume = true;
  ExpectSameRun(TrainOnce("BK-DDN", interrupted), golden, "resume");
  std::filesystem::remove_all(interrupted.checkpoint_dir);
}

TEST_F(TrainingPipelineTest, EvaluateSplitMatchesTwoPassStatics) {
  core::TrainOptions options = BaseOptions();
  options.epochs = 1;
  std::unique_ptr<models::NeuralDocumentModel> model =
      core::MakeDeepModel("BK-DDN", ModelConfigForDataset());
  core::Trainer(options).Train(model.get(), dataset_.train(),
                               dataset_.validation(),
                               synth::Horizon::kInHospital);
  const core::Trainer::EvalMetrics metrics = core::Trainer::EvaluateSplit(
      model.get(), dataset_.test(), synth::Horizon::kInHospital);
  EXPECT_EQ(metrics.auc,
            core::Trainer::EvaluateAuc(model.get(), dataset_.test(),
                                       synth::Horizon::kInHospital));
  EXPECT_GT(metrics.mean_loss, 0.0);

  // Degenerate splits: loss 0 and AUC 0.5 when empty, AUC 0.5 when
  // one-class — what EvaluateAuc reports.
  const core::Trainer::EvalMetrics empty = core::Trainer::EvaluateSplit(
      model.get(), {}, synth::Horizon::kInHospital);
  EXPECT_EQ(empty.mean_loss, 0.0);
  EXPECT_EQ(empty.auc, 0.5);
  std::vector<data::Example> one_class(3, dataset_.test().front());
  for (data::Example& example : one_class) {
    example.labels = {true, true, true};
  }
  const core::Trainer::EvalMetrics degenerate = core::Trainer::EvaluateSplit(
      model.get(), one_class, synth::Horizon::kInHospital);
  EXPECT_EQ(degenerate.auc, 0.5);
  EXPECT_GT(degenerate.mean_loss, 0.0);
}


// ---------------------------------------------------------------------------
// Feature goldens: the co-attention maps (Tables VII-X) and pooled patient
// representations (Figs 10-12) a forward leaves behind.
// ---------------------------------------------------------------------------

TEST_F(TrainingPipelineTest, WorkspaceFeaturesMatchGraphGoldens) {
  models::ModelConfig config = ModelConfigForDataset();
  config.embedding_dim = 20;
  config.num_filters = 32;
  ASSERT_GE(dataset_.test().size(), 12u);
  std::vector<data::Example> examples(dataset_.test().begin(),
                                      dataset_.test().begin() + 12);
  // Short documents: below the widest filter (pad path) and at one row.
  for (const size_t length : {1u, 2u}) {
    data::Example short_doc = dataset_.test().front();
    short_doc.word_ids.resize(length);
    short_doc.concept_ids.resize(length);
    examples.push_back(std::move(short_doc));
  }
  auto add = [](const Tensor& t, Fingerprint* fp) {
    fp->Add<uint64_t>(static_cast<uint64_t>(t.size()));
    for (int64_t i = 0; i < t.size(); ++i) {
      fp->Add(t[i]);
    }
  };
  const serve::FrozenModel bk =
      serve::FrozenModel::Freeze(models::BkDdn(config));
  const serve::FrozenModel ak =
      serve::FrozenModel::Freeze(models::AkDdn(config));
  PoolSizeGuard guard;
  for (const int threads : {1, 2, 4}) {
    SetGlobalThreadPoolSize(threads);
    serve::FrozenModel::Workspace ws;
    Fingerprint bk_fp, ak_fp;
    for (const data::Example& example : examples) {
      bk.Logits(example, &ws);
      add(ws.fused, &bk_fp);
      ak.Logits(example, &ws);
      add(ws.word_to_concept, &ak_fp);
      add(ws.concept_to_word, &ak_fp);
      add(ws.fused, &ak_fp);
    }
    const std::string tag = "threads=" + std::to_string(threads);
    EXPECT_EQ(bk_fp.value(), kBkDdnFeaturesGolden) << tag;
    EXPECT_EQ(ak_fp.value(), kAkDdnFeaturesGolden) << tag;
  }
}

}  // namespace
}  // namespace kddn
