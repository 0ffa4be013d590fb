// The train workload: MortalityDataset::Build over a RAD cohort, then
// AK-DDN training with default TrainOptions at nproc threads, then test AUC.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "autograd/node.h"
#include "autograd/ops.h"
#include "common/alloc_tracker.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "kb/concept_extractor.h"
#include "models/ak_ddn.h"
#include "nn/optimizer.h"
#include "report.h"
#include "serve/frozen_model.h"
#include "serve/json_util.h"
#include "synth/cohort.h"
#include "tensor/tensor_ops.h"
#include "text/lemmatizer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace kddn::perfbench {
namespace {

constexpr int kPatients = 1000;
constexpr int kEpochs = 2;
constexpr int kBuildsPerRound = 3;
constexpr synth::Horizon kHorizon = synth::Horizon::kWithinYear;
// Two epochs of AK-DDN on this cohort rank one-year mortality far better
// than chance on every seed tried; a drop below this means the arithmetic
// broke, not that the seed was unlucky.
constexpr double kAucFloor = 0.65;
constexpr int kReplayExamples = 64;
constexpr int kReplayBatch = 32;
constexpr int kSetupsPerRound = 5;

struct TrainState {
  std::unique_ptr<kb::KnowledgeBase> kb;
  std::unique_ptr<kb::ConceptExtractor> extractor;
  std::unique_ptr<synth::Cohort> cohort;
};

std::unique_ptr<TrainState> SetUpTrain(const RunConfig& config) {
  auto state = std::make_unique<TrainState>();
  state->kb =
      std::make_unique<kb::KnowledgeBase>(kb::KnowledgeBase::BuildDefault());
  state->extractor = std::make_unique<kb::ConceptExtractor>(state->kb.get());
  synth::CohortConfig cohort_config;
  cohort_config.kind = synth::CorpusKind::kRad;
  cohort_config.num_patients = kPatients;
  cohort_config.seed = config.seed;
  state->cohort = std::make_unique<synth::Cohort>(
      synth::Cohort::Generate(cohort_config, *state->kb));
  return state;
}

data::DatasetOptions RadOptions() {
  data::DatasetOptions options;
  options.max_words = 256;
  options.max_concepts = 96;
  return options;
}

std::unique_ptr<models::AkDdn> NewModel(const data::MortalityDataset& dataset) {
  models::ModelConfig config;
  config.word_vocab_size = dataset.word_vocab().size();
  config.concept_vocab_size = dataset.concept_vocab().size();
  config.seed = 5;
  return std::make_unique<models::AkDdn>(config);
}

/// One measured round: build the dataset, train, evaluate.
struct Round {
  std::vector<Cost> builds;
  Cost epoch;  // Trainer::Train divided by the epochs it ran.
  double allocs_per_example = 0.0;
  double test_auc = 0.0;
  uint64_t fingerprint = 0;
  std::unique_ptr<data::MortalityDataset> dataset;
  std::unique_ptr<models::AkDdn> model;
};

Round TrainRound(const TrainState& state, int epochs) {
  Round round;
  for (int i = 0; i < kBuildsPerRound; ++i) {
    round.builds.push_back(Measure([&] {
      round.dataset = std::make_unique<data::MortalityDataset>(
          data::MortalityDataset::Build(*state.cohort, *state.extractor,
                                        RadOptions()));
    }));
  }
  round.model = NewModel(*round.dataset);
  core::TrainOptions options;
  options.epochs = epochs;
  core::Trainer trainer(options);
  alloc::AllocScope allocs("perfbench.train");
  const Cost train = Measure([&] {
    trainer.Train(round.model.get(), round.dataset->train(),
                  round.dataset->validation(), kHorizon);
  });
  round.epoch.wall_s = train.wall_s / epochs;
  round.epoch.cpu_s = train.cpu_s / epochs;
  round.allocs_per_example =
      static_cast<double>(allocs.allocations()) /
      (static_cast<double>(round.dataset->train().size()) * epochs);
  round.test_auc = core::Trainer::EvaluateAuc(
      round.model.get(), round.dataset->test(), kHorizon);
  round.fingerprint = serve::FrozenModel::Freeze(*round.model).fingerprint();
  return round;
}

/// Every round trains from the same inputs and seeds, so it must reproduce
/// round 0's weights and test AUC bit for bit.
void CheckSameModel(const Round& round, uint64_t fingerprint, double auc,
                    const std::string& what, Report* report) {
  const bool same = round.fingerprint == fingerprint && round.test_auc == auc;
  report->Count(1, same ? 0 : 1);
  if (!same) {
    report->Fail("train: " + what + " trained different weights than round 0");
  }
}

std::vector<const data::Example*> TestSplit(const Round& round) {
  std::vector<const data::Example*> test;
  for (const data::Example& example : round.dataset->test()) {
    test.push_back(&example);
  }
  return test;
}

/// The round's model frozen for serving scores test patients one at a time
/// on one thread, in passes for at least `min_seconds`: what a clinician
/// waits for per note. Appends each score's wall time to `latency_ms`. The
/// frozen scores must give the graph path's test AUC to the bit.
void ScoreTestSingly(const Round& round, double min_seconds,
                     std::vector<double>* latency_ms, Report* report) {
  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(*round.model);
  const std::vector<const data::Example*> test = TestSplit(round);
  ThreadPool::ScopedWorkerMark inline_kernels;
  serve::FrozenModel::Workspace ws;
  std::vector<float> scores;
  for (const data::Example* example : test) {  // Also warms the workspace.
    scores.push_back(frozen.ScorePositive(*example, &ws));
  }
  const double frozen_auc = ScoreAuc(scores, test, kHorizon);
  report->Count(1, frozen_auc == round.test_auc ? 0 : 1);
  if (frozen_auc != round.test_auc) {
    report->Fail("train: the frozen model's test AUC " +
                 std::to_string(frozen_auc) + " differs from the graph's " +
                 std::to_string(round.test_auc));
  }
  const std::vector<double> pass = ItemLatenciesMs<const data::Example*>(
      test, min_seconds, [&](const data::Example* const& example) {
        frozen.ScorePositive(*example, &ws);
      });
  latency_ms->insert(latency_ms->end(), pass.begin(), pass.end());
}

/// Forward, backward and Adagrad replays on sampled training examples, on
/// one thread with kernels inline, as a training job runs them on a lane.
void ProfileAutograd(const RunConfig& config, Round* round, Report* report) {
  const std::vector<data::Example>& train = round->dataset->train();
  Rng pick(config.seed);
  std::vector<const data::Example*> sample;
  for (int i = 0; i < kReplayExamples; ++i) {
    sample.push_back(&train[pick.UniformInt(static_cast<int>(train.size()))]);
  }
  models::AkDdn* model = round->model.get();
  ag::SetSparseGradients(core::TrainOptions().sparse_embedding_updates);
  nn::Adagrad optimizer(core::TrainOptions().learning_rate);
  double forward_s = 0.0, backward_s = 0.0;
  std::vector<double> step_ms;
  {
    ThreadPool::ScopedWorkerMark inline_kernels;
    Rng dropout(config.seed + 1);
    for (int pass = 0; pass < 4; ++pass) {
      for (size_t i = 0; i < sample.size(); ++i) {
        nn::ForwardContext ctx;
        ctx.training = true;
        ctx.rng = &dropout;
        ag::NodePtr loss;
        forward_s += TimeIt([&] {
          loss = ag::Scale(
              ag::SoftmaxCrossEntropy(model->Logits(*sample[i], ctx),
                                      sample[i]->Label(kHorizon) ? 1 : 0),
              1.0f / kReplayBatch);
        });
        backward_s += TimeIt([&] { ag::Backward(loss); });
        if ((i + 1) % kReplayBatch == 0) {
          step_ms.push_back(
              TimeIt([&] { optimizer.Step(model->params().all()); }) * 1e3);
        }
      }
    }
  }
  const double examples = 4.0 * sample.size();
  Log("layer autograd: %.0f sampled examples on one thread, forward %.3f s, "
      "backward %.3f s; %zu Adagrad steps",
      examples, forward_s, backward_s, step_ms.size());
  report->Layer("train.forward_us_per_example", forward_s * 1e6 / examples);
  report->Layer("train.backward_us_per_example", backward_s * 1e6 / examples);
  report->Layer("train.optimizer_step_ms", Median(step_ms));
}

/// Serial replays of the dataset build's per-patient stages.
void ProfileDatasetStages(const TrainState& state, double build_s,
                          Report* report) {
  const text::Lemmatizer lemmatizer;
  const text::StopwordList stopwords;
  const data::DatasetOptions options = RadOptions();
  const std::vector<synth::SyntheticPatient>& patients =
      state.cohort->patients();
  const double text_s = TimeIt([&] {
    for (const synth::SyntheticPatient& patient : patients) {
      stopwords.Filter(
          lemmatizer.LemmatizeAll(text::TokenizeWords(patient.text)));
    }
  });
  const double extract_s = TimeIt([&] {
    for (const synth::SyntheticPatient& patient : patients) {
      state.extractor->ExtractCuiSequence(patient.text, options.extraction);
    }
  });
  const double n = static_cast<double>(patients.size());
  Log("layer dataset: %zu patients serially: text %.3f s, extract %.3f s; "
      "parallel build %.3f s",
      patients.size(), text_s, extract_s, build_s);
  report->Layer("dataset.text_us_per_patient", text_s * 1e6 / n);
  report->Layer("dataset.extract_us_per_patient", extract_s * 1e6 / n);
  // Every patient's text is distinct, so each call is an extractor miss.
  report->Layer("extract.us_per_miss", extract_s * 1e6 / n);
  report->Layer("dataset.build_speedup", (text_s + extract_s) / build_s);
}

}  // namespace

void RunTrain(const RunConfig& config, Report* report) {
  const std::function<std::unique_ptr<TrainState>()> set_up = [&] {
    return SetUpTrain(config);
  };
  SetupTimes setup_times;
  std::unique_ptr<TrainState> state = RepeatedSetup(&setup_times, set_up);
  std::vector<double> build_s, build_cpu_s, epoch_s, epoch_cpu_s, allocs;
  std::vector<double> latency_ms;
  Round round;
  uint64_t fingerprint = 0;
  double auc = 0.0;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < 3 || SecondsSince(start) < config.seconds; ++i) {
    round = TrainRound(*state, kEpochs);
    for (const Cost& build : round.builds) {
      build_s.push_back(build.wall_s);
      build_cpu_s.push_back(build.cpu_s);
    }
    epoch_s.push_back(round.epoch.wall_s);
    epoch_cpu_s.push_back(round.epoch.cpu_s);
    allocs.push_back(round.allocs_per_example);
    Log("train round %d: build %.4f s (%.4f CPU s), epoch %.4f s (%.4f CPU "
        "s), test AUC %.6f, weights %s",
        i, round.builds.back().wall_s, round.builds.back().cpu_s,
        round.epoch.wall_s, round.epoch.cpu_s, round.test_auc,
        serve::FingerprintToHex(round.fingerprint).c_str());
    if (i == 0) {
      fingerprint = round.fingerprint;
      auc = round.test_auc;
    }
    CheckSameModel(round, fingerprint, auc, "round " + std::to_string(i),
                   report);
    // Between rounds, so that host contention of the moment moves one
    // round's share of the samples rather than the result.
    ScoreTestSingly(round, 0.25, &latency_ms, report);
    // Set-up takes a few hundredths of a second, and the host's speed drifts
    // over seconds, so set-up is timed again between rounds too.
    for (int k = 0; k < kSetupsPerRound; ++k) {
      setup_times.Time(set_up);
    }
  }
  setup_times.ReportTo(report);
  report->Count(1, auc >= kAucFloor ? 0 : 1);
  if (auc < kAucFloor) {
    report->Fail("train: test AUC " + std::to_string(auc) +
                 " is below the floor " + std::to_string(kAucFloor));
  }
  Log("train: %zu rounds of %d epochs on %d train / %d test patients at %d "
      "threads; trained-weight fingerprint %s",
      epoch_s.size(), kEpochs, static_cast<int>(round.dataset->train().size()),
      static_cast<int>(round.dataset->test().size()), config.nproc,
      serve::FingerprintToHex(fingerprint).c_str());
  const double epoch_median = Median(epoch_s);
  const double build_median = Median(build_s);
  const double train_examples =
      static_cast<double>(round.dataset->train().size());
  const double patients = static_cast<double>(state->cohort->patients().size());
  report->EndToEnd("cpu_ms_per_item",
                   Median(epoch_cpu_s) * 1e3 / train_examples);
  report->EndToEnd("encode_us_per_item",
                   Median(build_cpu_s) * 1e6 / patients);
  report->EndToEnd("test_auc", auc);

  Log("train: %zu test patients scored one at a time by the frozen model, "
      "p50 %.4f ms, p99 %.4f ms",
      latency_ms.size(), Median(latency_ms),
      serve::PercentileOf(latency_ms, 0.99));
  report->EndToEnd("latency_p50_ms", Median(latency_ms));
  if (!config.trace) {
    return;
  }
  report->Layer("latency_p99_ms", serve::PercentileOf(latency_ms, 0.99));
  ProfileForward(serve::FrozenModel::Freeze(*round.model),
                 round.model->config(), /*akddn=*/true, TestSplit(round), 0.5,
                 report);

  report->Layer("epoch_s", epoch_median);
  report->Layer("build_s", build_median);
  report->Layer("train.tensor_allocs_per_example", Median(allocs));
  Round traced;
  double dropped = 0.0;
  {
    ProgramTrace tracing;
    traced = TrainRound(*state, kEpochs);
    dropped = ProgramTrace::Dropped();
  }
  CheckSameModel(traced, fingerprint, auc, "the traced round", report);
  Log("trace overhead base: epoch %.4f s untraced (median), %.4f s traced",
      epoch_median, traced.epoch.wall_s);
  report->Layer("trace.overhead_pct",
                (traced.epoch.wall_s / epoch_median - 1) * 100);
  report->Layer("trace.spans_dropped", dropped);

  std::vector<double> eval_s;
  for (int i = 0; i < 3; ++i) {
    eval_s.push_back(TimeIt([&] {
      core::Trainer::EvaluateSplit(round.model.get(),
                                   round.dataset->validation(), kHorizon);
    }));
  }
  report->Layer("train.eval_s", Median(eval_s));
  ProfileAutograd(config, &round, report);
  ProfileDatasetStages(*state, build_median, report);

  // One epoch with the whole pool on one thread: the job executor's
  // speed-up, and the GEMM share of an epoch with no parallel overlap
  // muddying the ratio. Last, since resizing the pool discards its threads'
  // warm state.
  SetGlobalThreadPoolSize(1);
  ResetGemmTiming();
  SetGemmTimingEnabled(true);
  const double one_thread_epoch_s = TrainRound(*state, 1).epoch.wall_s;
  SetGemmTimingEnabled(false);
  const double gemm_s = GetGemmTiming().total_ns * 1e-9;
  SetGlobalThreadPoolSize(config.nproc);
  Log("layer jobs: epoch %.4f s on 1 thread vs %.4f s on %d; GEMM %.4f s of "
      "the 1-thread epoch",
      one_thread_epoch_s, epoch_median, config.nproc, gemm_s);
  report->Layer("jobs.speedup_nproc", one_thread_epoch_s / epoch_median);
  report->Layer("jobs.epoch_s_1thread", one_thread_epoch_s);
  report->Layer("gemm.share_of_train", gemm_s / one_thread_epoch_s);
}

}  // namespace kddn::perfbench
