// Google-benchmark microbenchmarks for the primitives every experiment sits
// on: matmul, the CNN block, co-attention forward+backward, MetaMap-style
// extraction, LDA Gibbs sweeps, and t-SNE. Useful for spotting performance
// regressions in the substrate.
//
// Run with --parallel_json[=path] to instead emit BENCH_parallel.json:
// wall-clock of one BK-DDN training epoch on a NURSING-scale synthetic
// corpus at 1/2/4 threads (median, min and max of repeated epochs) — the
// perf trajectory that future scaling PRs diff against.
//
// Run with --serve_json[=path] to emit BENCH_serve.json: serving-path
// wall-clock on a trained BK-DDN — one-at-a-time autograd forward vs the
// frozen snapshot vs the batched inference engine, plus engine latency
// percentiles and the concept-cache hit rate on a repeated-note workload.
//
// Run with --train_json[=path] to emit BENCH_train.json: single-thread
// BK-DDN epoch wall-clock at a >= 20k-row word vocabulary in four modes —
// naive GEMM + dense embedding gradients (the pre-optimisation cost
// profile), the scalar lane-faithful GEMM reference + dense, the
// runtime-dispatched SIMD GEMM + dense, and SIMD + row-sparse — and asserts
// that the three canonical-order runs (scalar/simd/sparse) produce bitwise-
// identical weights (the same invariant tests/perf_test.cc enforces). The
// naive row is wall-clock-only: the canonical A*B^T accumulation order is
// the lane-split reduction, which the pre-SIMD naive loops predate
// (DESIGN.md §9).
//
// Run with --pipeline_json[=path] to emit BENCH_pipeline.json: build + train
// + per-epoch eval wall-clock of a validation-heavy workload — dataset build
// at pool size 1 vs the host's thread count, training at 1 vs the host's
// thread count, and the isolated double-pass vs fused gradient-free eval
// (DESIGN.md §10) — asserting byte-identical builds and bitwise-identical
// weights and curves.
//
// Run with --trace_json[=path] to emit BENCH_trace.json: the observability
// invariants (DESIGN.md §12) — per-span overhead with tracing disabled (the
// relaxed-atomic fast path) and enabled, per-stage wall time from a traced
// build + train + serve run, and the frozen-forward zero-tensor-allocation
// flag measured through alloc::AllocScope. Fails (exit 1) if the warm
// forward allocates. Gated by scripts/check_bench.py.
//
// Run with --jobs_json[=path] to emit BENCH_jobs.json: the job-graph
// executor's overlap speedup over the fork/join barrier schedule on a
// staged pipeline at pool size 2 (plus steady-state jobs/sec across reused
// generations), and the bitwise weight/curve identity of job-graph
// training at 1 vs 2 threads (DESIGN.md §14). Gated by
// scripts/check_bench.py.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "baselines/lda.h"
#include "common/alloc_tracker.h"
#include "common/job_executor.h"
#include "common/job_graph.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "kb/concept_extractor.h"
#include "models/bk_ddn.h"
#include "nn/layers.h"
#include "serve/frozen_model.h"
#include "serve/inference_engine.h"
#include "synth/cohort.h"
#include "tensor/tensor_ops.h"
#include "viz/tsne.h"

namespace kddn {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Tensor a = RandomNormal({n, n}, 0, 1, &rng);
  Tensor b = RandomNormal({n, n}, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_Conv1dBankForward(benchmark::State& state) {
  const int tokens = static_cast<int>(state.range(0));
  Rng rng(2);
  nn::ParameterSet params;
  nn::Conv1dBank conv(&params, "conv", 20, 50, {1, 2, 3}, &rng);
  ag::NodePtr x =
      ag::Node::Leaf(RandomNormal({tokens, 20}, 0, 1, &rng), false, "x");
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x));
  }
}
BENCHMARK(BM_Conv1dBankForward)->Arg(64)->Arg(160)->Arg(256);

void BM_CoAttentionForwardBackward(benchmark::State& state) {
  const int words = static_cast<int>(state.range(0));
  const int concepts = words / 3 + 1;
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    ag::NodePtr w = ag::Node::Leaf(RandomNormal({words, 20}, 0, 1, &rng),
                                   true, "w");
    ag::NodePtr c = ag::Node::Leaf(RandomNormal({concepts, 20}, 0, 1, &rng),
                                   true, "c");
    state.ResumeTiming();
    nn::AttiResult atti = nn::Atti(w, c);
    ag::Backward(ag::MeanAll(atti.output));
    benchmark::DoNotOptimize(w->grad());
  }
}
BENCHMARK(BM_CoAttentionForwardBackward)->Arg(64)->Arg(160)->Arg(256);

void BM_ConceptExtraction(benchmark::State& state) {
  auto kb = kb::KnowledgeBase::BuildDefault();
  kb::ConceptExtractor extractor(&kb);
  synth::NoteGenerator generator(&kb);
  auto panel = synth::BuildDiseasePanel(kb);
  synth::PatientState patient;
  patient.diseases = {&panel[0], &panel[3], &panel[6]};
  Rng rng(4);
  const std::string note =
      generator.Generate(patient, synth::NoteStyle::kRadiology, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(note));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(note.size()));
}
BENCHMARK(BM_ConceptExtraction);

void BM_LdaGibbsSweep(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::vector<int>> docs;
  for (int d = 0; d < 200; ++d) {
    std::vector<int> doc;
    for (int t = 0; t < 80; ++t) {
      doc.push_back(rng.UniformInt(500));
    }
    docs.push_back(std::move(doc));
  }
  for (auto _ : state) {
    baselines::LdaOptions options;
    options.num_topics = 50;
    options.train_iterations = 1;
    baselines::Lda lda(options);
    lda.Fit(docs, 500);
    benchmark::DoNotOptimize(lda.TrainDocTopics(0));
  }
}
BENCHMARK(BM_LdaGibbsSweep);

void BM_TsneSmall(benchmark::State& state) {
  Rng rng(6);
  Tensor points = RandomNormal({120, 30}, 0, 1, &rng);
  for (auto _ : state) {
    viz::TsneOptions options;
    options.iterations = 50;
    options.perplexity = 15.0;
    benchmark::DoNotOptimize(viz::Tsne(points, options));
  }
}
BENCHMARK(BM_TsneSmall);

/// Seconds of wall clock for one call of `fn`, repeated `reps` times taking
/// the best (least-noisy) run.
template <typename Fn>
double BestSeconds(int reps, const Fn& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, elapsed.count());
  }
  return best;
}

/// Median, min and max of repeated wall-clock samples.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread SpreadOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  Spread spread;
  spread.min = samples.front();
  spread.max = samples.back();
  spread.median = n % 2 == 1 ? samples[n / 2]
                             : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  return spread;
}

/// True on degenerate hosts where thread-scaling numbers are meaningless:
/// recorded into every bench artifact so readers (and scripts/check_bench.py)
/// can tell a regression from a hardware limitation.
bool SingleCoreHost() { return std::thread::hardware_concurrency() <= 1; }

void WriteHostFields(std::ofstream& out) {
  out << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"single_core_host\": " << (SingleCoreHost() ? "true" : "false")
      << ",\n";
  out << "  \"simd_isa\": \"" << ActiveGemmIsa() << "\",\n";
}

void WriteJsonSection(std::ofstream& out, const char* name,
                      const std::vector<int>& threads,
                      const std::vector<double>& seconds, bool last = false) {
  out << "  \"" << name << "_seconds\": {";
  for (size_t i = 0; i < threads.size(); ++i) {
    out << "\"" << threads[i] << "\": " << seconds[i]
        << (i + 1 < threads.size() ? ", " : "");
  }
  out << "}" << (last ? "\n" : ",\n");
}

/// Emits BENCH_parallel.json: BK-DDN training-epoch wall-clock at 1, 2 and
/// 4 threads — per thread count the median, min and max of kRepeats
/// epochs, with the thread counts interleaved round-robin so host drift
/// spreads evenly across them. Every epoch runs the same deterministic
/// kernels, so the trained bits agree across columns; only wall-clock
/// differs.
int RunParallelBench(const std::string& out_path) {
  constexpr int kRepeats = 7;
  const std::vector<int> thread_counts = {1, 2, 4};

  // NURSING-scale synthetic corpus: paper-sized documents and embedding
  // widths, patient count trimmed so the whole sweep stays interactive.
  auto kb = kb::KnowledgeBase::BuildDefault();
  kb::ConceptExtractor extractor(&kb);
  synth::CohortConfig cohort_config;
  cohort_config.num_patients = 400;
  cohort_config.seed = 21;
  const synth::Cohort cohort = synth::Cohort::Generate(cohort_config, kb);
  data::DatasetOptions data_options;
  data_options.max_words = 96;
  data_options.max_concepts = 48;
  const data::MortalityDataset dataset =
      data::MortalityDataset::Build(cohort, extractor, data_options);

  std::vector<std::vector<double>> samples(thread_counts.size());
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (size_t t = 0; t < thread_counts.size(); ++t) {
      SetGlobalThreadPoolSize(thread_counts[t]);
      samples[t].push_back(BestSeconds(1, [&] {
        models::ModelConfig model_config;
        model_config.word_vocab_size = dataset.word_vocab().size();
        model_config.concept_vocab_size = dataset.concept_vocab().size();
        model_config.embedding_dim = 20;  // Paper's NURSING width.
        model_config.num_filters = 50;    // Paper's filter count.
        model_config.seed = 5;
        models::BkDdn model(model_config);
        core::TrainOptions train_options;
        train_options.epochs = 1;
        train_options.batch_size = 32;
        train_options.num_threads = thread_counts[t];
        core::Trainer trainer(train_options);
        trainer.Train(&model, dataset.train(), dataset.validation(),
                      synth::Horizon::kInHospital);
      }));
    }
  }
  SetGlobalThreadPoolSize(0);
  std::vector<double> median_s, min_s, max_s;
  for (size_t t = 0; t < thread_counts.size(); ++t) {
    const Spread spread = SpreadOf(samples[t]);
    median_s.push_back(spread.median);
    min_s.push_back(spread.min);
    max_s.push_back(spread.max);
    std::printf("threads=%d epoch median=%.3fs (min %.3fs, max %.3fs)\n",
                thread_counts[t], spread.median, spread.min, spread.max);
  }
  const double speedup = median_s[0] / median_s[2];

  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  WriteHostFields(out);
  out << "  \"thread_counts\": [1, 2, 4],\n";
  out << "  \"repeats\": " << kRepeats << ",\n";
  WriteJsonSection(out, "bkddn_epoch_nursing400", thread_counts, median_s);
  WriteJsonSection(out, "bkddn_epoch_nursing400_min", thread_counts, min_s);
  WriteJsonSection(out, "bkddn_epoch_nursing400_max", thread_counts, max_s);
  out << "  \"epoch_speedup_4_vs_1\": " << speedup << "\n";
  out << "}\n";
  std::printf("wrote %s (median epoch speedup 4 vs 1 threads: %.2fx)\n",
              out_path.c_str(), speedup);
  return 0;
}

/// Emits BENCH_serve.json: the serving-path acceptance numbers. Scores the
/// same held-out split three ways — per-example autograd graph, per-example
/// frozen forward, and the batched engine — asserts the three agree bitwise,
/// and measures a repeated-note ScoreNote workload for the cache hit rate.
int RunServeBench(const std::string& out_path) {
  auto kb = kb::KnowledgeBase::BuildDefault();
  kb::ConceptExtractor extractor(&kb);
  synth::CohortConfig cohort_config;
  cohort_config.num_patients = 400;
  cohort_config.seed = 21;
  const synth::Cohort cohort = synth::Cohort::Generate(cohort_config, kb);
  data::DatasetOptions data_options;
  data_options.max_words = 96;
  data_options.max_concepts = 48;
  const data::MortalityDataset dataset =
      data::MortalityDataset::Build(cohort, extractor, data_options);

  models::ModelConfig model_config;
  model_config.word_vocab_size = dataset.word_vocab().size();
  model_config.concept_vocab_size = dataset.concept_vocab().size();
  model_config.embedding_dim = 20;
  model_config.num_filters = 50;
  model_config.seed = 5;
  models::BkDdn model(model_config);
  core::TrainOptions train_options;
  train_options.epochs = 1;
  train_options.batch_size = 32;
  core::Trainer trainer(train_options);
  std::printf("training BK-DDN for the serve bench...\n");
  trainer.Train(&model, dataset.train(), dataset.validation(),
                synth::Horizon::kInHospital);

  const std::vector<data::Example>& split = dataset.test();
  const size_t n = split.size();
  std::vector<float> autograd_scores(n), frozen_scores(n), engine_scores(n);

  const double autograd_s = BestSeconds(3, [&] {
    for (size_t i = 0; i < n; ++i) {
      autograd_scores[i] = model.PredictPositiveProbability(split[i]);
    }
  });

  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(model);
  serve::FrozenModel::Workspace ws;
  const double frozen_s = BestSeconds(3, [&] {
    for (size_t i = 0; i < n; ++i) {
      frozen_scores[i] = frozen.ScorePositive(split[i], &ws);
    }
  });

  serve::EngineOptions engine_options;
  engine_options.max_batch = 16;
  engine_options.flush_deadline_ms = 2;
  serve::InferenceEngine engine(&frozen, engine_options);
  const double engine_s = BestSeconds(3, [&] {
    std::vector<std::future<serve::Scored>> futures;
    futures.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      futures.push_back(engine.ScoreAsync(split[i]));
    }
    for (size_t i = 0; i < n; ++i) {
      engine_scores[i] = futures[i].get().score;
    }
  });

  bool bitwise = true;
  for (size_t i = 0; i < n; ++i) {
    bitwise = bitwise && autograd_scores[i] == frozen_scores[i] &&
              autograd_scores[i] == engine_scores[i];
  }

  // Raw-note workload: every note scored twice, so a working concept cache
  // converges to a 50% hit rate.
  serve::NotePipeline pipeline;
  pipeline.word_vocab = &dataset.word_vocab();
  pipeline.concept_vocab = &dataset.concept_vocab();
  pipeline.extractor = &extractor;
  pipeline.options = data_options;
  serve::InferenceEngine note_engine(&frozen, pipeline, engine_options);
  size_t notes_scored = 0;
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < std::min<size_t>(40, cohort.patients().size());
         ++i) {
      note_engine.ScoreNote(cohort.patients()[i].text);
      ++notes_scored;
    }
  }

  const serve::StatsSnapshot engine_stats = engine.stats();
  const serve::StatsSnapshot note_stats = note_engine.stats();
  std::printf(
      "n=%zu autograd=%.4fs frozen=%.4fs engine=%.4fs bitwise=%s "
      "cache_hit_rate=%.2f\n",
      n, autograd_s, frozen_s, engine_s, bitwise ? "yes" : "NO",
      note_stats.cache_hit_rate);

  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  WriteHostFields(out);
  out << "  \"test_examples\": " << n << ",\n";
  out << "  \"snapshot_fingerprint\": \"" << std::hex << frozen.fingerprint()
      << std::dec << "\",\n";
  out << "  \"autograd_seconds\": " << autograd_s << ",\n";
  out << "  \"frozen_seconds\": " << frozen_s << ",\n";
  out << "  \"engine_batched_seconds\": " << engine_s << ",\n";
  out << "  \"autograd_notes_per_s\": " << static_cast<double>(n) / autograd_s
      << ",\n";
  out << "  \"frozen_notes_per_s\": " << static_cast<double>(n) / frozen_s
      << ",\n";
  out << "  \"engine_batched_notes_per_s\": "
      << static_cast<double>(n) / engine_s << ",\n";
  out << "  \"batched_vs_autograd_speedup\": " << autograd_s / engine_s
      << ",\n";
  out << "  \"bitwise_match\": " << (bitwise ? "true" : "false") << ",\n";
  out << "  \"raw_notes_scored\": " << notes_scored << ",\n";
  out << "  \"note_cache_hit_rate\": " << note_stats.cache_hit_rate << ",\n";
  out << "  \"engine_stats\": " << engine_stats.ToJson() << ",\n";
  out << "  \"note_engine_stats\": " << note_stats.ToJson() << "\n";
  out << "}\n";
  std::printf("wrote %s (batched vs autograd: %.2fx)\n", out_path.c_str(),
              autograd_s / engine_s);
  return bitwise ? 0 : 1;
}

/// Parameter values of a model, registration order.
std::vector<Tensor> ParamValues(const models::NeuralDocumentModel& model) {
  std::vector<Tensor> values;
  for (const ag::NodePtr& param : model.params().all()) {
    values.push_back(param->value());
  }
  return values;
}

bool SameWeights(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t p = 0; p < a.size(); ++p) {
    if (!a[p].SameShape(b[p]) ||
        std::memcmp(a[p].data(), b[p].data(), a[p].size() * sizeof(float)) !=
            0) {
      return false;
    }
  }
  return true;
}

bool SameCurve(const std::vector<eval::CurvePoint>& a,
               const std::vector<eval::CurvePoint>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t p = 0; p < a.size(); ++p) {
    if (a[p].epoch != b[p].epoch || a[p].train_loss != b[p].train_loss ||
        a[p].validation_loss != b[p].validation_loss ||
        a[p].validation_auc != b[p].validation_auc) {
      return false;
    }
  }
  return true;
}

/// A BK-DDN training run on the in-hospital horizon: best-of-`reps` wall
/// clock plus the trained weights and curve (reps are deterministic, so the
/// last copy stands for all of them).
struct TrainedRun {
  double seconds = 0.0;
  std::vector<Tensor> weights;
  std::vector<eval::CurvePoint> curve;
};

TrainedRun TrainBkDdn(const models::ModelConfig& config,
                      const core::TrainOptions& options,
                      const data::MortalityDataset& dataset, int reps) {
  TrainedRun run;
  run.seconds = BestSeconds(reps, [&] {
    models::BkDdn model(config);
    const eval::CurveRecorder recorder = core::Trainer(options).Train(
        &model, dataset.train(), dataset.validation(),
        synth::Horizon::kInHospital);
    run.weights = ParamValues(model);
    run.curve = recorder.points();
  });
  return run;
}

/// One row of the training bench: a GEMM kernel choice plus a gradient mode.
struct TrainMode {
  const char* name;
  GemmKernel kernel;
  bool sparse;
};

/// Emits BENCH_train.json: the tentpole acceptance artifact. Trains the same
/// BK-DDN (same seeds, same data, one thread) under four kernel/gradient
/// modes, reports epoch wall-clock, in-situ GEMM wall-clock (the
/// `blocked_gemm_speedup` / `simd_vs_scalar_speedup` ratios compare time
/// actually spent inside DispatchGemm on the identical workload — the
/// epoch-level ratios are diluted by the dense table passes that the sparse
/// mode exists to remove), and the before/after speedups, and fails
/// (exit 1) unless the three canonical-order runs (scalar lane-faithful,
/// SIMD dense, SIMD sparse) produce bitwise-identical weights — including
/// `simd_vs_scalar_bitwise_identical`, the cross-kernel flag
/// scripts/check_bench.py hard-gates. The naive row is the pre-optimisation
/// wall-clock baseline only (its A*B^T order predates the lane-split
/// contract). The word vocabulary is padded to >= 20k rows so the dense
/// modes pay the pre-PR per-step cost of merging, re-zeroing, and
/// Adagrad-stepping the whole table while a batch only touches a few
/// hundred rows of it.
int RunTrainBench(const std::string& out_path) {
  auto kb = kb::KnowledgeBase::BuildDefault();
  kb::ConceptExtractor extractor(&kb);
  synth::CohortConfig cohort_config;
  cohort_config.num_patients = 300;
  cohort_config.seed = 21;
  const synth::Cohort cohort = synth::Cohort::Generate(cohort_config, kb);
  data::DatasetOptions data_options;
  data_options.max_words = 32;
  data_options.max_concepts = 16;
  const data::MortalityDataset dataset =
      data::MortalityDataset::Build(cohort, extractor, data_options);

  // Paper-scale widths; the word table is padded to a MIMIC-scale open
  // vocabulary (clinical corpora run to low-hundreds-of-thousands of types;
  // the synthetic generator's is far smaller). This exercises the dense
  // modes' real per-step cost: merging, re-zeroing, and Adagrad-stepping
  // every row of a table a batch touches a few hundred rows of.
  constexpr int kVocabFloor = 150000;
  models::ModelConfig model_config;
  model_config.word_vocab_size =
      std::max<int>(dataset.word_vocab().size(), kVocabFloor);
  model_config.concept_vocab_size = dataset.concept_vocab().size();
  model_config.embedding_dim = 20;
  model_config.num_filters = 50;
  model_config.seed = 5;

  core::TrainOptions train_options;
  train_options.epochs = 2;  // Amortises one-time table-init costs.
  train_options.batch_size = 16;
  train_options.num_threads = 1;
  train_options.seed = 7;

  // Row 0 is the wall-clock "before" baseline only: the naive kernel's
  // A*B^T accumulation predates the lane-split canonical order, so its
  // weights are NOT expected to match the other rows bitwise. Rows 1..3 all
  // follow the canonical order and must agree bitwise with each other.
  const TrainMode modes[] = {
      {"naive_dense", GemmKernel::kNaive, false},  // Pre-PR cost profile.
      {"scalar_dense", GemmKernel::kScalar, false},
      {"simd_dense", GemmKernel::kAuto, false},
      {"simd_sparse", GemmKernel::kAuto, true},
  };
  constexpr int kNumModes = 4;
  std::vector<double> seconds;
  std::vector<double> gemm_seconds;
  std::vector<std::vector<Tensor>> weights(kNumModes);
  for (int i = 0; i < kNumModes; ++i) {
    SetGemmKernel(modes[i].kernel);
    train_options.sparse_embedding_updates = modes[i].sparse;
    // In-situ GEMM accounting: the dense epoch is dominated by the O(vocab)
    // table passes (that is what the sparse mode removes), so an epoch-level
    // ratio would bury the kernel change. gemm_seconds is the wall-clock the
    // run actually spent inside DispatchGemm; its cost when enabled is two
    // clock reads per multi-µs matmul.
    ResetGemmTiming();
    SetGemmTimingEnabled(true);
    seconds.push_back(BestSeconds(2, [&] {
      models::BkDdn model(model_config);
      core::Trainer trainer(train_options);
      trainer.Train(&model, dataset.train(), dataset.validation(),
                    synth::Horizon::kInHospital);
      weights[i] = ParamValues(model);  // Reps are deterministic.
    }));
    SetGemmTimingEnabled(false);
    // Both BestSeconds reps run the identical GEMM sequence; halving the
    // accumulated total keeps the artifact per-run like epoch_seconds.
    gemm_seconds.push_back(static_cast<double>(GetGemmTiming().total_ns) /
                           1e9 / 2.0);
    std::printf("%-14s epoch=%.3fs gemm=%.3fs\n", modes[i].name,
                seconds.back() / train_options.epochs,
                gemm_seconds.back() / train_options.epochs);
  }
  SetGemmKernel(GemmKernel::kAuto);

  // Bitwise agreement across the canonical-order rows, anchored on the
  // scalar lane-faithful reference (row 1).
  const bool simd_vs_scalar = SameWeights(weights[1], weights[2]);
  const bool bitwise = simd_vs_scalar && SameWeights(weights[1], weights[3]);

  const double speedup = seconds[0] / seconds[3];
  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  WriteHostFields(out);
  // Per-mode record of the kernel that actually ran: kAuto modes report the
  // ISA the one-time dispatch resolved to on this host, never the literal
  // "auto" (simd_isa already carries the host-wide resolution; this maps it
  // onto the rows whose numbers the artifact gates).
  out << "  \"gemm_kernel\": {";
  for (int i = 0; i < kNumModes; ++i) {
    out << "\"" << modes[i].name << "\": \""
        << (modes[i].kernel == GemmKernel::kAuto
                ? ActiveGemmIsa()
                : GemmKernelName(modes[i].kernel))
        << "\"" << (i < kNumModes - 1 ? ", " : "");
  }
  out << "},\n";
  out << "  \"config\": {\"num_patients\": " << cohort_config.num_patients
      << ", \"train_examples\": " << dataset.train().size()
      << ", \"max_words\": " << data_options.max_words
      << ", \"max_concepts\": " << data_options.max_concepts
      << ", \"word_vocab_size\": " << model_config.word_vocab_size
      << ", \"concept_vocab_size\": " << model_config.concept_vocab_size
      << ", \"embedding_dim\": " << model_config.embedding_dim
      << ", \"num_filters\": " << model_config.num_filters
      << ", \"batch_size\": " << train_options.batch_size
      << ", \"epochs\": " << train_options.epochs
      << ", \"num_threads\": " << train_options.num_threads << "},\n";
  out << "  \"epoch_seconds\": {";
  for (int i = 0; i < kNumModes; ++i) {
    out << "\"" << modes[i].name << "\": "
        << seconds[i] / train_options.epochs
        << (i < kNumModes - 1 ? ", " : "");
  }
  out << "},\n";
  out << "  \"gemm_seconds\": {";
  for (int i = 0; i < kNumModes; ++i) {
    out << "\"" << modes[i].name << "\": "
        << gemm_seconds[i] / train_options.epochs
        << (i < kNumModes - 1 ? ", " : "");
  }
  out << "},\n";
  // GEMM-time ratios on the identical dense workload (same shapes, same
  // call sequence): naive-vs-dispatched and scalar-reference-vs-dispatched.
  out << "  \"blocked_gemm_speedup\": " << gemm_seconds[0] / gemm_seconds[2]
      << ",\n";
  out << "  \"simd_vs_scalar_speedup\": "
      << gemm_seconds[1] / gemm_seconds[2] << ",\n";
  out << "  \"sparse_update_speedup\": " << seconds[2] / seconds[3] << ",\n";
  out << "  \"total_speedup\": " << speedup << ",\n";
  out << "  \"weights_bitwise_identical\": " << (bitwise ? "true" : "false")
      << ",\n";
  out << "  \"simd_vs_scalar_bitwise_identical\": "
      << (simd_vs_scalar ? "true" : "false") << "\n";
  out << "}\n";
  std::printf("wrote %s (total speedup %.2fx, bitwise=%s, simd==scalar=%s)\n",
              out_path.c_str(), speedup, bitwise ? "yes" : "NO",
              simd_vs_scalar ? "yes" : "NO");
  return bitwise ? 0 : 1;
}

/// Emits BENCH_pipeline.json: the input-pipeline / evaluation-path
/// acceptance artifact (DESIGN.md §10). One validation-heavy workload is
/// built at pool size 1 (JobExecutor runs the build graph inline there: the
/// serial loop) and at the host's thread count, trained at one thread and at
/// the host's thread count, and its validation pass is timed in isolation:
/// the historical double pass (a loss sweep, then a score sweep) built from
/// public calls, against the one fused gradient-free sweep the trainer
/// runs. end_to_end_speedup prices the layers the pipeline removed, measured
/// in the same run: the pool-1 build plus one extra double pass per epoch,
/// against the parallel build; the one-thread training run is on both
/// sides. Fails (exit 1) unless both builds are byte-identical, both
/// trainings give bitwise-identical weights and curves, and the isolated
/// passes agree.
int RunPipelineBench(const std::string& out_path) {
  auto kb = kb::KnowledgeBase::BuildDefault();
  kb::ConceptExtractor extractor(&kb);
  synth::CohortConfig cohort_config;
  cohort_config.num_patients = 300;
  cohort_config.seed = 21;
  const synth::Cohort cohort = synth::Cohort::Generate(cohort_config, kb);
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  // Validation-heavy on purpose: the paper's per-epoch curve costs one
  // validation sweep per epoch, and this workload makes that sweep a large
  // share of the epoch so the eval-path cost is visible in end-to-end
  // wall-clock even on a single-core host.
  data::DatasetOptions data_options;
  data_options.max_words = 64;
  data_options.max_concepts = 32;
  data_options.test_fraction = 0.2;
  data_options.validation_fraction = 0.5;

  SetGlobalThreadPoolSize(1);
  data::MortalityDataset pool1_dataset =
      data::MortalityDataset::Build(cohort, extractor, data_options);
  const double pool1_build_s = BestSeconds(3, [&] {
    pool1_dataset =
        data::MortalityDataset::Build(cohort, extractor, data_options);
  });
  SetGlobalThreadPoolSize(nproc);
  data::MortalityDataset dataset =
      data::MortalityDataset::Build(cohort, extractor, data_options);
  const double nproc_build_s = BestSeconds(3, [&] {
    dataset = data::MortalityDataset::Build(cohort, extractor, data_options);
  });

  auto same_split = [](const std::vector<data::Example>& a,
                       const std::vector<data::Example>& b) {
    if (a.size() != b.size()) {
      return false;
    }
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].patient_id != b[i].patient_id ||
          a[i].word_ids != b[i].word_ids ||
          a[i].concept_ids != b[i].concept_ids || a[i].labels != b[i].labels) {
        return false;
      }
    }
    return true;
  };
  const bool build_identical =
      same_split(dataset.train(), pool1_dataset.train()) &&
      same_split(dataset.validation(), pool1_dataset.validation()) &&
      same_split(dataset.test(), pool1_dataset.test()) &&
      dataset.excluded_zero_concept() == pool1_dataset.excluded_zero_concept();
  std::printf("build pool=1 %.3fs pool=%d %.3fs identical=%s\n", pool1_build_s,
              nproc, nproc_build_s, build_identical ? "yes" : "NO");

  models::ModelConfig model_config;
  model_config.word_vocab_size = dataset.word_vocab().size();
  model_config.concept_vocab_size = dataset.concept_vocab().size();
  model_config.embedding_dim = 20;
  model_config.num_filters = 50;
  model_config.seed = 5;

  core::TrainOptions base_options;
  base_options.epochs = 3;
  base_options.batch_size = 16;
  base_options.num_threads = 1;
  base_options.seed = 7;
  const synth::Horizon horizon = synth::Horizon::kInHospital;

  const TrainedRun one_thread =
      TrainBkDdn(model_config, base_options, dataset, 2);
  core::TrainOptions nproc_options = base_options;
  nproc_options.num_threads = nproc;
  const TrainedRun all_threads =
      TrainBkDdn(model_config, nproc_options, dataset, 2);
  const bool weights_identical =
      SameWeights(all_threads.weights, one_thread.weights);
  const bool curves_equal = SameCurve(all_threads.curve, one_thread.curve);
  std::printf("train %d epochs: 1 thread %.3fs, %d threads %.3fs\n",
              base_options.epochs, one_thread.seconds, nproc,
              all_threads.seconds);

  // Isolated eval pass on a trained model: the historical double pass (two
  // tape-building graph sweeps — the mean loss, then score+AUC) against one
  // fused gradient-free sweep.
  models::BkDdn eval_model(model_config);
  core::Trainer(base_options)
      .Train(&eval_model, dataset.train(), dataset.validation(), horizon);
  const std::vector<data::Example>& validation = dataset.validation();
  const std::vector<int> validation_labels =
      core::Trainer::Labels(validation, horizon);
  double two_pass_loss = 0.0, two_pass_auc = 0.0;
  const double two_pass_s = BestSeconds(3, [&] {
    double total = 0.0;
    nn::ForwardContext ctx;
    ctx.training = false;
    for (size_t i = 0; i < validation.size(); ++i) {
      total += ag::ScalarValue(ag::SoftmaxCrossEntropy(
          eval_model.Logits(validation[i], ctx), validation_labels[i]));
    }
    two_pass_loss = total / static_cast<double>(validation.size());
    std::vector<float> scores(validation.size());
    for (size_t i = 0; i < validation.size(); ++i) {
      scores[i] = eval_model.PredictPositiveProbability(validation[i]);
    }
    two_pass_auc = eval::RocAuc(scores, validation_labels);
  });
  core::Trainer::EvalMetrics fused_metrics;
  const double fused_s = BestSeconds(3, [&] {
    fused_metrics = core::Trainer::EvaluateSplit(&eval_model, validation,
                                                 horizon);
  });
  const bool eval_identical = fused_metrics.mean_loss == two_pass_loss &&
                              fused_metrics.auc == two_pass_auc;
  std::printf("eval two_pass=%.4fs fused=%.4fs (%.2fx) identical=%s\n",
              two_pass_s, fused_s, two_pass_s / fused_s,
              eval_identical ? "yes" : "NO");

  // Build + train + per-epoch eval with and without the pipeline's layers.
  const double baseline_total =
      pool1_build_s + one_thread.seconds +
      base_options.epochs * (two_pass_s - fused_s);
  const double pipelined_total = nproc_build_s + one_thread.seconds;
  const double end_to_end = baseline_total / pipelined_total;
  const bool all_identical =
      build_identical && weights_identical && curves_equal && eval_identical;

  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  WriteHostFields(out);
  out << "  \"config\": {\"num_patients\": " << cohort_config.num_patients
      << ", \"train_examples\": " << dataset.train().size()
      << ", \"validation_examples\": " << dataset.validation().size()
      << ", \"max_words\": " << data_options.max_words
      << ", \"max_concepts\": " << data_options.max_concepts
      << ", \"validation_fraction\": " << data_options.validation_fraction
      << ", \"embedding_dim\": " << model_config.embedding_dim
      << ", \"num_filters\": " << model_config.num_filters
      << ", \"batch_size\": " << base_options.batch_size
      << ", \"epochs\": " << base_options.epochs
      << ", \"num_threads\": [1, " << nproc << "]},\n";
  out << "  \"dataset_build_seconds\": {\"pool_1\": " << pool1_build_s
      << ", \"pool_nproc\": " << nproc_build_s << "},\n";
  out << "  \"dataset_build_speedup\": " << pool1_build_s / nproc_build_s
      << ",\n";
  out << "  \"dataset_bytes_identical\": "
      << (build_identical ? "true" : "false") << ",\n";
  out << "  \"train_seconds\": {\"threads_1\": " << one_thread.seconds
      << ", \"threads_nproc\": " << all_threads.seconds << "},\n";
  out << "  \"eval_pass_seconds\": {\"two_pass_graph\": " << two_pass_s
      << ", \"fused_nograd\": " << fused_s << "},\n";
  out << "  \"eval_pass_speedup\": " << two_pass_s / fused_s << ",\n";
  out << "  \"eval_metrics_identical\": "
      << (eval_identical ? "true" : "false") << ",\n";
  out << "  \"end_to_end_seconds\": {\"baseline\": " << baseline_total
      << ", \"pipelined\": " << pipelined_total << "},\n";
  out << "  \"end_to_end_speedup\": " << end_to_end << ",\n";
  out << "  \"weights_bitwise_identical\": "
      << (weights_identical ? "true" : "false") << ",\n";
  out << "  \"curves_bitwise_equal\": " << (curves_equal ? "true" : "false")
      << "\n";
  out << "}\n";
  std::printf("wrote %s (end-to-end %.2fx, weights bitwise=%s, curves=%s)\n",
              out_path.c_str(), end_to_end, weights_identical ? "yes" : "NO",
              curves_equal ? "yes" : "NO");
  return all_identical ? 0 : 1;
}

/// Emits BENCH_trace.json: the observability invariants of DESIGN.md §12.
/// Three measurements share one artifact:
///
///  * `trace_disabled_overhead_ns` — per-span cost with tracing off, i.e.
///    the single relaxed atomic load every instrumented hot path pays
///    unconditionally. check_bench.py bounds it.
///  * `stage_wall_ms` — per-stage span rollup (count / total / max) from a
///    traced dataset-build + train + serve run, the numbers DESIGN.md §12
///    quotes instead of asserting in prose.
///  * `frozen_forward_alloc_free` — true iff a warm FrozenModel forward and
///    a warm engine batch pass perform zero tensor allocations, measured
///    through alloc::AllocScope. The PR-4 pooling claim as a hard gate.
int RunTraceBench(const std::string& out_path) {
  // --- Span overhead, disabled then enabled -------------------------------
  constexpr int kSpansPerRep = 1 << 20;
  const auto span_burst = [&] {
    for (int i = 0; i < kSpansPerRep; ++i) {
      KDDN_TRACE_SPAN("trace.noop");
    }
  };
  trace::SetEnabled(false);
  const double disabled_ns =
      BestSeconds(5, span_burst) / kSpansPerRep * 1e9;
  trace::SetEnabled(true);
  const double enabled_ns = BestSeconds(5, span_burst) / kSpansPerRep * 1e9;
  trace::SetEnabled(false);
  trace::Clear();
  std::printf("span overhead: disabled=%.1fns enabled=%.1fns\n", disabled_ns,
              enabled_ns);

  // --- Traced end-to-end run: build + train + serve -----------------------
  // Small enough that the per-thread rings (8192 events) keep every span;
  // `spans_dropped` in the artifact confirms.
  trace::SetEnabled(true);
  auto kb = kb::KnowledgeBase::BuildDefault();
  kb::ConceptExtractor extractor(&kb);
  synth::CohortConfig cohort_config;
  cohort_config.num_patients = 120;
  cohort_config.seed = 21;
  const synth::Cohort cohort = synth::Cohort::Generate(cohort_config, kb);
  data::DatasetOptions data_options;
  data_options.max_words = 96;
  data_options.max_concepts = 48;
  const data::MortalityDataset dataset =
      data::MortalityDataset::Build(cohort, extractor, data_options);

  models::ModelConfig model_config;
  model_config.word_vocab_size = dataset.word_vocab().size();
  model_config.concept_vocab_size = dataset.concept_vocab().size();
  model_config.embedding_dim = 20;
  model_config.num_filters = 50;
  model_config.seed = 5;
  models::BkDdn model(model_config);
  core::TrainOptions train_options;
  train_options.epochs = 1;
  train_options.batch_size = 32;
  core::Trainer trainer(train_options);
  trainer.Train(&model, dataset.train(), dataset.validation(),
                synth::Horizon::kInHospital);

  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(model);
  serve::EngineOptions engine_options;
  engine_options.max_batch = 16;
  engine_options.flush_deadline_ms = 2;
  {
    serve::InferenceEngine engine(&frozen, engine_options);
    std::vector<std::future<serve::Scored>> futures;
    for (const data::Example& example : dataset.test()) {
      futures.push_back(engine.ScoreAsync(example));
    }
    for (std::future<serve::Scored>& future : futures) {
      future.get();
    }
  }
  trace::SetEnabled(false);

  const std::vector<trace::ThreadSnapshot> snapshot = trace::Snapshot();
  const std::map<std::string, trace::SpanStats> stages =
      trace::AggregateByName(snapshot);
  uint64_t spans_dropped = 0;
  for (const trace::ThreadSnapshot& thread : snapshot) {
    spans_dropped += thread.dropped;
  }
  trace::Clear();

  // --- Zero-allocation invariant on the warm serving path -----------------
  // Warm pass grows every workspace buffer to the split's high-water shape;
  // the measured passes must then leave the tensor allocator untouched.
  serve::FrozenModel::Workspace ws;
  float sink = 0.0f;
  for (const data::Example& example : dataset.test()) {
    sink += frozen.ScorePositive(example, &ws);
  }
  uint64_t forward_allocs = 0;
  {
    alloc::AllocScope scope("bench.frozen_forward");
    for (int rep = 0; rep < 3; ++rep) {
      for (const data::Example& example : dataset.test()) {
        sink += frozen.ScorePositive(example, &ws);
      }
    }
    forward_allocs = scope.allocations();
  }
  benchmark::DoNotOptimize(sink);
  const bool alloc_free = forward_allocs == 0;
  const alloc::Totals totals = alloc::GlobalTotals();
  std::printf("frozen_forward_alloc_free=%s (allocs=%llu over %zux3 warm "
              "examples), live=%llu peak=%llu bytes\n",
              alloc_free ? "true" : "FALSE",
              static_cast<unsigned long long>(forward_allocs),
              dataset.test().size(),
              static_cast<unsigned long long>(totals.live_bytes),
              static_cast<unsigned long long>(totals.peak_bytes));

  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  WriteHostFields(out);
  out << "  \"trace_disabled_overhead_ns\": " << disabled_ns << ",\n";
  out << "  \"trace_enabled_overhead_ns\": " << enabled_ns << ",\n";
  out << "  \"ring_capacity_events\": " << trace::internal::kRingCapacity
      << ",\n";
  out << "  \"spans_dropped\": " << spans_dropped << ",\n";
  out << "  \"stage_wall_ms\": {";
  bool first = true;
  for (const auto& [name, stats] : stages) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"count\": "
        << stats.count << ", \"total_ms\": " << stats.total_ns / 1e6
        << ", \"max_ms\": " << stats.max_ns / 1e6 << "}";
    first = false;
  }
  out << "},\n";
  out << "  \"frozen_forward_alloc_free\": " << (alloc_free ? "true" : "false")
      << ",\n";
  out << "  \"frozen_forward_allocations\": " << forward_allocs << ",\n";
  out << "  \"tensor_live_bytes\": " << totals.live_bytes << ",\n";
  out << "  \"tensor_peak_bytes\": " << totals.peak_bytes << ",\n";
  out << "  \"tensor_allocations\": " << totals.allocations << ",\n";
  out << "  \"tensor_frees\": " << totals.frees << "\n";
  out << "}\n";
  std::printf("wrote %s (disabled span %.1fns, %zu stages, dropped %llu)\n",
              out_path.c_str(), disabled_ns, stages.size(),
              static_cast<unsigned long long>(spans_dropped));
  return alloc_free ? 0 : 1;
}

/// SplitMix64 mixer for the jobs bench: fixed, unbalanced per-job spin
/// lengths without touching any global RNG state.
uint64_t JobsBenchMix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Emits BENCH_jobs.json: the job-graph executor's headline numbers
/// (DESIGN.md §14). Two measurements share the artifact:
///
///  * `overlap_speedup` — a staged pipeline (kStages dependent stages over
///    kChains independent chains, unbalanced per-job durations) run two
///    ways at pool size 2: the fork/join barrier way (one ParallelFor per
///    stage, so every stage waits for the slowest job of the previous one)
///    and as one reused job graph whose only edges are along each chain, so
///    stage s of a fast chain overlaps stage s-1 of a slow one and the
///    whole iteration costs one pool round-trip instead of kStages. The
///    gain comes from removed synchronisation, so it holds even on a
///    single-core host. The speedup is the median of kPairs alternating
///    (barrier, graph) pass ratios, reported with their min and max;
///    `overlap_seconds` holds the median pass times.
///    `graph_matches_barrier_output` asserts both schedules produce
///    identical bytes in every pair; `steady_state_jobs_per_sec` is the
///    graph path's sustained rate across reused generations.
///  * `weights_bitwise_identical` / `curves_bitwise_equal` — BK-DDN
///    training on the job graph at 1 and at 2 threads, compared
///    weight-by-weight and point-by-point: the determinism contract as a
///    recorded artifact, gated by scripts/check_bench.py.
int RunJobsBench(const std::string& out_path) {
  // --- Overlap microbench: barrier vs graph at pool size 2 ----------------
  SetGlobalThreadPoolSize(2);
  // Deep and light on purpose: the quantity under test is schedule cost, so
  // the pipeline is deeper than it is wide (12 barriers per iteration for
  // the fork/join way, one pool round-trip for the graph) and each job spins
  // only a few microseconds. Heavier jobs just dilute both schedules towards
  // the same pure-work floor.
  constexpr int kStages = 12;
  constexpr int kChains = 16;
  constexpr int kIterations = 100;  // Per timed pass.
  // Timed (barrier, graph) pass pairs. The headline is the median of the
  // per-pair ratios: alternating the schedules within a pair exposes both
  // to the same host load, and the median ignores the odd pair a
  // co-tenant disturbs.
  constexpr int kPairs = 15;
  const auto spin_for = [](uint64_t iterations) {
    volatile uint64_t sink = 0;
    for (uint64_t i = 0; i < iterations; ++i) {
      sink = sink + i;
    }
  };
  // cells[s][c] = mix(cells[s-1][c] + job constant): every value depends on
  // the whole chain above it, so any scheduling error changes the bytes.
  std::vector<std::array<uint64_t, kChains>> cells(kStages);
  const auto job_body = [&](int stage, int chain) {
    const uint64_t salt =
        JobsBenchMix(static_cast<uint64_t>(stage) * kChains + chain);
    spin_for(salt % 2500);
    const uint64_t upstream = stage == 0 ? 0 : cells[stage - 1][chain];
    cells[stage][chain] = JobsBenchMix(upstream + salt);
  };
  const auto reset_cells = [&] {
    for (auto& stage : cells) {
      stage.fill(0);
    }
  };

  jobs::JobGraph graph;
  std::array<jobs::JobId, kChains> previous{};
  for (int s = 0; s < kStages; ++s) {
    for (int c = 0; c < kChains; ++c) {
      const jobs::JobId id =
          graph.AddJob("bench.jobs.stage", [&, s, c] { job_body(s, c); });
      if (s > 0) {
        graph.AddEdge(previous[c], id);
      }
      previous[c] = id;
    }
  }
  graph.Finalize();
  jobs::JobExecutor executor(&GlobalThreadPool());

  std::vector<double> barrier_samples, graph_samples, ratio_samples;
  bool outputs_identical = true;
  for (int pair = 0; pair < kPairs; ++pair) {
    reset_cells();
    barrier_samples.push_back(BestSeconds(1, [&] {
      for (int iteration = 0; iteration < kIterations; ++iteration) {
        for (int s = 0; s < kStages; ++s) {
          GlobalThreadPool().ParallelFor(kChains, [&, s](int64_t c) {
            job_body(s, static_cast<int>(c));
          });
        }
      }
    }));
    const std::vector<std::array<uint64_t, kChains>> barrier_cells = cells;
    reset_cells();
    graph_samples.push_back(BestSeconds(1, [&] {
      for (int iteration = 0; iteration < kIterations; ++iteration) {
        executor.Run(&graph);
      }
    }));
    outputs_identical = outputs_identical && cells == barrier_cells;
    ratio_samples.push_back(barrier_samples.back() / graph_samples.back());
  }
  const double barrier_s = SpreadOf(barrier_samples).median;
  const double graph_s = SpreadOf(graph_samples).median;
  const Spread overlap = SpreadOf(ratio_samples);
  const double jobs_per_sec =
      static_cast<double>(kStages) * kChains * kIterations / graph_s;
  std::printf("overlap barrier=%.4fs graph=%.4fs (median of %d pairs %.2fx, "
              "range %.2f-%.2fx, %.0f jobs/s) identical=%s\n",
              barrier_s, graph_s, kPairs, overlap.median, overlap.min,
              overlap.max, jobs_per_sec, outputs_identical ? "yes" : "NO");

  // --- Training determinism: job graph at 1 vs 2 threads -----------------
  auto kb = kb::KnowledgeBase::BuildDefault();
  kb::ConceptExtractor extractor(&kb);
  synth::CohortConfig cohort_config;
  cohort_config.num_patients = 200;
  cohort_config.seed = 33;
  const synth::Cohort cohort = synth::Cohort::Generate(cohort_config, kb);
  data::DatasetOptions data_options;
  data_options.max_words = 64;
  data_options.max_concepts = 32;
  const data::MortalityDataset dataset =
      data::MortalityDataset::Build(cohort, extractor, data_options);

  models::ModelConfig model_config;
  model_config.word_vocab_size = dataset.word_vocab().size();
  model_config.concept_vocab_size = dataset.concept_vocab().size();
  model_config.embedding_dim = 20;
  model_config.num_filters = 50;
  model_config.seed = 5;

  core::TrainOptions base_options;
  base_options.epochs = 3;
  base_options.batch_size = 16;
  base_options.seed = 7;
  constexpr int kTrainThreads[] = {1, 2};
  std::vector<TrainedRun> runs;
  for (const int threads : kTrainThreads) {
    core::TrainOptions options = base_options;
    options.num_threads = threads;
    runs.push_back(TrainBkDdn(model_config, options, dataset, 2));
    std::printf("job_graph threads=%d %d epochs = %.3fs\n", threads,
                base_options.epochs, runs.back().seconds);
  }
  const bool weights_identical = SameWeights(runs[1].weights, runs[0].weights);
  const bool curves_equal = SameCurve(runs[1].curve, runs[0].curve);

  const bool all_identical =
      outputs_identical && weights_identical && curves_equal;
  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  WriteHostFields(out);
  out << "  \"config\": {\"stages\": " << kStages
      << ", \"chains\": " << kChains << ", \"iterations\": " << kIterations
      << ", \"pairs\": " << kPairs
      << ", \"pool_threads\": 2, \"num_patients\": "
      << cohort_config.num_patients
      << ", \"batch_size\": " << base_options.batch_size
      << ", \"epochs\": " << base_options.epochs
      << ", \"train_num_threads\": [1, 2]},\n";
  out << "  \"overlap_seconds\": {\"barrier\": " << barrier_s
      << ", \"graph\": " << graph_s << "},\n";
  out << "  \"overlap_speedup\": " << overlap.median << ",\n";
  out << "  \"overlap_speedup_min\": " << overlap.min << ",\n";
  out << "  \"overlap_speedup_max\": " << overlap.max << ",\n";
  out << "  \"steady_state_jobs_per_sec\": " << jobs_per_sec << ",\n";
  out << "  \"graph_matches_barrier_output\": "
      << (outputs_identical ? "true" : "false") << ",\n";
  out << "  \"train_seconds\": {\"threads_1\": " << runs[0].seconds
      << ", \"threads_2\": " << runs[1].seconds << "},\n";
  out << "  \"weights_bitwise_identical\": "
      << (weights_identical ? "true" : "false") << ",\n";
  out << "  \"curves_bitwise_equal\": " << (curves_equal ? "true" : "false")
      << "\n";
  out << "}\n";
  std::printf("wrote %s (overlap %.2fx, weights bitwise=%s, curves=%s)\n",
              out_path.c_str(), overlap.median,
              weights_identical ? "yes" : "NO", curves_equal ? "yes" : "NO");
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace kddn

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--parallel_json", 15) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return kddn::RunParallelBench(eq != nullptr ? eq + 1
                                                  : "BENCH_parallel.json");
    }
    if (std::strncmp(argv[i], "--serve_json", 12) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return kddn::RunServeBench(eq != nullptr ? eq + 1
                                               : "BENCH_serve.json");
    }
    if (std::strncmp(argv[i], "--train_json", 12) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return kddn::RunTrainBench(eq != nullptr ? eq + 1
                                               : "BENCH_train.json");
    }
    if (std::strncmp(argv[i], "--pipeline_json", 15) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return kddn::RunPipelineBench(eq != nullptr ? eq + 1
                                                  : "BENCH_pipeline.json");
    }
    if (std::strncmp(argv[i], "--trace_json", 12) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return kddn::RunTraceBench(eq != nullptr ? eq + 1 : "BENCH_trace.json");
    }
    if (std::strncmp(argv[i], "--jobs_json", 11) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return kddn::RunJobsBench(eq != nullptr ? eq + 1 : "BENCH_jobs.json");
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
