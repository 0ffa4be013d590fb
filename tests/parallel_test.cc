// Tests for the concurrency substrate: ThreadPool semantics (zero tasks,
// reentrancy, exception transport), the executor's blocked loop that library
// fan-outs use, pool-size independence of the tensor kernels, and — the
// load-bearing guarantee — that training is bitwise reproducible at any
// thread count thanks to the chunk-ordered gradient reduction in
// core::Trainer.
#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/job_executor.h"
#include "common/rng.h"
#include "core/trainer.h"
#include "gtest/gtest.h"
#include "kb/concept_extractor.h"
#include "kb/knowledge_base.h"
#include "models/ak_ddn.h"
#include "models/bk_ddn.h"
#include "synth/cohort.h"
#include "tensor/tensor_ops.h"

namespace kddn {
namespace {

TEST(ThreadPoolTest, ZeroAndNegativeCountsReturnImmediately) {
  ThreadPool pool(4);
  jobs::JobExecutor executor(&pool);
  int calls = 0;
  pool.ParallelFor(0, [&](int64_t) { ++calls; });
  pool.ParallelFor(-3, [&](int64_t) { ++calls; });
  executor.ParallelForBlocked(0, 7, [&](int64_t, int64_t) { ++calls; });
  executor.ParallelForBlocked(-3, 7, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int> hits(17, 0);
  pool.ParallelFor(17, [&](int64_t i) { ++hits[i]; });
  for (int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kCount = 10'000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](int64_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, BlockedVariantCoversRangeWithoutOverlap) {
  // The blocked loop library code uses is the executor's: every index runs
  // exactly once, inside contiguous blocks that tile [0, count) and are at
  // least min_block long (only the final block may be shorter).
  ThreadPool pool(3);
  constexpr int kCount = 1001;
  constexpr int64_t kMinBlock = 7;
  std::vector<std::atomic<int>> hits(kCount);
  std::mutex blocks_mu;
  std::vector<std::pair<int64_t, int64_t>> blocks;
  jobs::JobExecutor(&pool).ParallelForBlocked(
      kCount, kMinBlock, [&](int64_t begin, int64_t end) {
        ASSERT_LT(begin, end);
        for (int64_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
        std::lock_guard<std::mutex> lock(blocks_mu);
        blocks.emplace_back(begin, end);
      });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
  std::sort(blocks.begin(), blocks.end());
  ASSERT_FALSE(blocks.empty());
  EXPECT_EQ(blocks.front().first, 0);
  EXPECT_EQ(blocks.back().second, kCount);
  for (size_t b = 0; b < blocks.size(); ++b) {
    if (b + 1 < blocks.size()) {
      EXPECT_EQ(blocks[b].second, blocks[b + 1].first) << b;
      EXPECT_GE(blocks[b].second - blocks[b].first, kMinBlock) << b;
    }
  }
}

TEST(ThreadPoolTest, ReentrantParallelForRunsInlineAndDrains) {
  // A worker that starts a nested parallel region must not deadlock waiting
  // on the pool it occupies; the nested region serializes on that worker.
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(8, [&](int64_t) {
    pool.ParallelFor(5, [&](int64_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 5);
}

TEST(ThreadPoolTest, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [&](int64_t i) {
                         ran.fetch_add(1, std::memory_order_relaxed);
                         if (i == 13) {
                           KDDN_CHECK(false) << "boom at " << i;
                         }
                       }),
      KddnError);
  // Cancellation is cooperative: some iterations may be skipped, none run
  // after the pool drained.
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 64);
}

TEST(ThreadPoolTest, GlobalPoolResizeRoundTrip) {
  const int original = GlobalThreadPoolSize();
  SetGlobalThreadPoolSize(3);
  EXPECT_EQ(GlobalThreadPoolSize(), 3);
  SetGlobalThreadPoolSize(0);  // Restore the hardware default.
  EXPECT_GE(GlobalThreadPoolSize(), 1);
  SetGlobalThreadPoolSize(original);
}

/// A GEMM runs as one kernel call on the calling thread with one fixed
/// per-element accumulation order, so its bits must not depend on the global
/// pool size.
TEST(ParallelTensorOpsTest, MatMulFamilyBitwiseEqualAcrossThreadCounts) {
  Rng rng(77);
  Tensor a = RandomNormal({96, 80}, 0, 1, &rng);
  Tensor b = RandomNormal({80, 72}, 0, 1, &rng);
  Tensor bt = RandomNormal({72, 80}, 0, 1, &rng);
  Tensor at = RandomNormal({80, 96}, 0, 1, &rng);

  SetGlobalThreadPoolSize(1);
  const Tensor serial_ab = MatMul(a, b);
  const Tensor serial_abt = MatMulABt(a, bt);
  const Tensor serial_atb = MatMulAtB(at, b);

  for (int threads : {2, 4}) {
    SetGlobalThreadPoolSize(threads);
    EXPECT_EQ(MaxAbsDiff(MatMul(a, b), serial_ab), 0.0f) << threads;
    EXPECT_EQ(MaxAbsDiff(MatMulABt(a, bt), serial_abt), 0.0f) << threads;
    EXPECT_EQ(MaxAbsDiff(MatMulAtB(at, b), serial_atb), 0.0f) << threads;
  }
  SetGlobalThreadPoolSize(0);
}

/// End-to-end determinism fixture: a small synthetic cohort, BK-DDN trained
/// for 2 epochs at several thread counts, compared bitwise.
class TrainingDeterminismTest : public ::testing::Test {
 protected:
  TrainingDeterminismTest()
      : kb_(kb::KnowledgeBase::BuildDefault()), extractor_(&kb_) {
    synth::CohortConfig config;
    config.num_patients = 150;
    config.seed = 33;
    cohort_ = synth::Cohort::Generate(config, kb_);
    data::DatasetOptions options;
    options.max_words = 64;
    options.max_concepts = 32;
    dataset_ = data::MortalityDataset::Build(cohort_, extractor_, options);
  }

  models::ModelConfig SmallModelConfig() const {
    models::ModelConfig config;
    config.word_vocab_size = dataset_.word_vocab().size();
    config.concept_vocab_size = dataset_.concept_vocab().size();
    config.embedding_dim = 6;
    config.num_filters = 4;
    config.seed = 11;
    return config;
  }

  /// Trains a fresh BK-DDN with `num_threads` and returns (params, auc).
  std::pair<std::vector<Tensor>, double> TrainOnce(int num_threads) {
    models::BkDdn model(SmallModelConfig());
    core::TrainOptions options;
    options.epochs = 2;
    options.batch_size = 16;
    options.seed = 7;
    options.num_threads = num_threads;
    core::Trainer trainer(options);
    trainer.Train(&model, dataset_.train(), dataset_.validation(),
                  synth::Horizon::kInHospital);
    std::vector<Tensor> params;
    for (const ag::NodePtr& param : model.params().all()) {
      params.push_back(param->value());
    }
    const double auc = core::Trainer::EvaluateAuc(
        &model, dataset_.test(), synth::Horizon::kInHospital);
    return {std::move(params), auc};
  }

  kb::KnowledgeBase kb_;
  kb::ConceptExtractor extractor_;
  synth::Cohort cohort_;
  data::MortalityDataset dataset_;
};

TEST_F(TrainingDeterminismTest, BitwiseIdenticalParamsAtAnyThreadCount) {
  const auto [base_params, base_auc] = TrainOnce(1);
  ASSERT_FALSE(base_params.empty());
  for (int threads : {2, 4}) {
    const auto [params, auc] = TrainOnce(threads);
    ASSERT_EQ(params.size(), base_params.size()) << threads;
    for (size_t i = 0; i < params.size(); ++i) {
      ASSERT_TRUE(params[i].SameShape(base_params[i])) << threads;
      // Bitwise comparison: memcmp over the raw float storage, so even
      // sign-of-zero or last-ulp drift fails loudly.
      EXPECT_EQ(std::memcmp(params[i].data(), base_params[i].data(),
                            params[i].size() * sizeof(float)),
                0)
          << "param " << i << " differs at " << threads << " threads";
    }
    EXPECT_EQ(auc, base_auc) << threads;
  }
}

TEST_F(TrainingDeterminismTest, ScoresIdenticalAcrossGlobalPoolSizes) {
  // BK-DDN and AK-DDN (whose co-attention sides and per-width conv branches
  // run as one serial sequence inside each scoring block): the same scores
  // at every pool size, bitwise equal to per-example prediction.
  models::BkDdn bk_ddn(SmallModelConfig());
  models::AkDdn ak_ddn(SmallModelConfig());
  for (models::NeuralDocumentModel* model :
       std::vector<models::NeuralDocumentModel*>{&bk_ddn, &ak_ddn}) {
    SetGlobalThreadPoolSize(1);
    const std::vector<float> serial =
        core::Trainer::Scores(model, dataset_.test());
    ASSERT_EQ(serial.size(), dataset_.test().size()) << model->name();
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i],
                model->PredictPositiveProbability(dataset_.test()[i]))
          << model->name() << " score " << i;
    }
    for (int threads : {2, 4}) {
      SetGlobalThreadPoolSize(threads);
      const std::vector<float> parallel =
          core::Trainer::Scores(model, dataset_.test());
      ASSERT_EQ(parallel.size(), serial.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i], serial[i])
            << model->name() << " score " << i << " at " << threads;
      }
    }
  }
  SetGlobalThreadPoolSize(0);
}

}  // namespace
}  // namespace kddn
