#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <utility>

#include "autograd/ops.h"
#include "common/check.h"
#include "common/fault_injector.h"
#include "common/job_executor.h"
#include "common/job_graph.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/batch_assembler.h"
#include "nn/optimizer.h"
#include "nn/serialization.h"
#include "serve/frozen_model.h"

namespace kddn::core {
namespace {

bool HasBothClasses(const std::vector<int>& labels) {
  bool positive = false, negative = false;
  for (int label : labels) {
    positive = positive || label == 1;
    negative = negative || label == 0;
  }
  return positive && negative;
}

/// The one graph-scoring loop: runs model->Logits over `split` under
/// ag::InferenceModeScope (value-only nodes, no tape) in executor blocks and
/// hands fn(i, softmax probabilities) for every example. The forward state
/// is hoisted per block — one ForwardContext and one inference scope serve
/// every example in it — which computes bitwise what
/// PredictPositiveProbability computes per example. Every call of fn gets a
/// distinct i, so writes to per-index slots are identical at any thread
/// count.
void ForEachGraphProbs(
    models::NeuralDocumentModel* model,
    const std::vector<data::Example>& split, ThreadPool* pool,
    const std::function<void(int64_t, const std::vector<float>&)>& fn) {
  jobs::JobExecutor(pool).ParallelForBlocked(
      static_cast<int64_t>(split.size()), /*min_block=*/4,
      [&](int64_t begin, int64_t end) {
        ag::InferenceModeScope inference;
        nn::ForwardContext ctx;
        ctx.training = false;
        for (int64_t i = begin; i < end; ++i) {
          fn(i, ag::SoftmaxProbs(model->Logits(split[i], ctx)->value()));
        }
      });
}

/// Trainer::EvaluateSplit on an explicit pool: Train evaluates on its own
/// (possibly private) pool after every epoch.
Trainer::EvalMetrics EvaluateSplitOn(models::NeuralDocumentModel* model,
                                     const std::vector<data::Example>& split,
                                     synth::Horizon horizon, ThreadPool* pool) {
  Trainer::EvalMetrics metrics;  // {0.0, 0.5} when the split is empty.
  if (split.empty()) {
    return metrics;
  }
  const std::vector<int> labels = Trainer::Labels(split, horizon);
  std::vector<float> scores(split.size());
  std::vector<double> losses(split.size(), 0.0);

  // Both metrics are reduced from one set of probabilities per example,
  // with the exact arithmetic of ag::SoftmaxCrossEntropy's forward value and
  // PredictPositiveProbability.
  auto record = [&](int64_t i, const std::vector<float>& probs) {
    losses[i] = -std::log(std::max(probs[labels[i]], 1e-12f));
    scores[i] = probs[1];
  };
  const std::string name = model->name();
  if (name == "BK-DDN" || name == "AK-DDN") {
    // Servable models evaluate through a refreshed frozen snapshot: no graph
    // nodes at all, per-block Workspace scratch reused across examples. The
    // snapshot's bitwise contract (serve/frozen_model.h) makes every loss
    // and score bit-equal to the graph path's.
    const serve::FrozenModel frozen = serve::FrozenModel::Freeze(*model);
    jobs::JobExecutor(pool).ParallelForBlocked(
        static_cast<int64_t>(split.size()), /*min_block=*/4,
        [&](int64_t begin, int64_t end) {
          serve::FrozenModel::Workspace ws;
          for (int64_t i = begin; i < end; ++i) {
            record(i, ag::SoftmaxProbs(frozen.Logits(split[i], &ws)));
          }
        });
  } else {
    ForEachGraphProbs(model, split, pool, record);
  }

  // Losses are summed in example order, so the mean is
  // thread-count-independent.
  double total = 0.0;
  for (double loss : losses) {
    total += loss;
  }
  metrics.mean_loss = total / static_cast<double>(split.size());
  metrics.auc = HasBothClasses(labels) ? eval::RocAuc(scores, labels) : 0.5;
  return metrics;
}

}  // namespace

std::string CheckpointPath(const std::string& checkpoint_dir) {
  return checkpoint_dir + "/checkpoint.kddn";
}

Trainer::Trainer(const TrainOptions& options) : options_(options) {
  KDDN_CHECK_GT(options.epochs, 0);
  KDDN_CHECK_GT(options.batch_size, 0);
  KDDN_CHECK_GT(options.learning_rate, 0.0f);
  KDDN_CHECK_GE(options.num_threads, 0);
  KDDN_CHECK_GT(options.grad_chunk_size, 0);
  KDDN_CHECK_GT(options.checkpoint_every, 0);
  KDDN_CHECK(!options.resume || !options.checkpoint_dir.empty())
      << "resume requires a checkpoint_dir";
}

eval::CurveRecorder Trainer::Train(models::NeuralDocumentModel* model,
                                   const std::vector<data::Example>& train,
                                   const std::vector<data::Example>& validation,
                                   synth::Horizon horizon) {
  KDDN_CHECK(model != nullptr);
  KDDN_CHECK(!train.empty()) << "empty training split";

  // Apply the sparse-gradient mode for the duration of this call, restoring
  // the caller's setting on every exit path (benchmarks flip modes between
  // back-to-back Train calls).
  struct SparseModeGuard {
    bool previous = ag::SparseGradientsEnabled();
    ~SparseModeGuard() { ag::SetSparseGradients(previous); }
  } sparse_guard;
  ag::SetSparseGradients(options_.sparse_embedding_updates);

  nn::Adagrad optimizer(options_.learning_rate);
  Rng rng(options_.seed);
  model->params().ZeroGrads();

  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = &GlobalThreadPool();
  if (options_.num_threads > 0) {
    owned_pool = std::make_unique<ThreadPool>(options_.num_threads);
    pool = owned_pool.get();
  }

  std::vector<int> order(train.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }

  // One gradient buffer per chunk of the largest possible batch, reused
  // across batches. The chunk layout is a function of batch_size and
  // grad_chunk_size alone, so the ordered merge below sums gradients in the
  // same floating-point order at every thread count.
  const size_t chunk_size = static_cast<size_t>(options_.grad_chunk_size);
  const size_t max_chunks =
      (static_cast<size_t>(options_.batch_size) + chunk_size - 1) / chunk_size;
  std::vector<std::unique_ptr<ag::GradSink>> sinks;
  std::vector<double> chunk_losses(max_chunks, 0.0);
  sinks.reserve(max_chunks);
  for (size_t i = 0; i < max_chunks; ++i) {
    sinks.push_back(std::make_unique<ag::GradSink>(model->params().all()));
  }

  // Best-validation snapshot (the paper uses the validation split "to find
  // the best parameters of the model", §VII-C): after training, parameters
  // are restored to the epoch with the highest validation AUC.
  std::vector<Tensor> best_params;
  double best_auc = -1.0;
  auto snapshot = [&] {
    best_params.clear();
    for (const ag::NodePtr& param : model->params().all()) {
      best_params.push_back(param->value());
    }
  };

  eval::CurveRecorder recorder;

  // --- Crash safety -------------------------------------------------------
  const bool checkpointing = !options_.checkpoint_dir.empty();
  const std::string checkpoint_path =
      checkpointing ? CheckpointPath(options_.checkpoint_dir) : std::string();
  if (checkpointing) {
    std::filesystem::create_directories(options_.checkpoint_dir);
  }
  // Checkpoints capture the exact epoch-boundary training state: current
  // weights, optimizer accumulators, best-validation snapshot, and curve.
  auto write_checkpoint = [&](int completed_epochs) {
    nn::TrainerState state;
    state.completed_epochs = completed_epochs;
    state.seed = options_.seed;
    state.best_validation_auc = best_auc;
    state.curve = recorder.points();
    state.accumulators = optimizer.ExportState();
    const auto& params = model->params().all();
    if (!best_params.empty()) {
      state.best_params.reserve(params.size());
      for (size_t i = 0; i < params.size(); ++i) {
        state.best_params.emplace_back(params[i]->name(), best_params[i]);
      }
    }
    nn::SaveCheckpointToFile(model->params(), &state, checkpoint_path);
  };

  int start_epoch = 1;
  if (options_.resume && std::filesystem::exists(checkpoint_path)) {
    nn::TrainerState state;
    KDDN_CHECK(
        nn::LoadCheckpointFromFile(&model->params(), &state, checkpoint_path))
        << checkpoint_path << " is a model-only checkpoint; cannot resume";
    KDDN_CHECK_EQ(state.seed, options_.seed)
        << "resume seed mismatch: checkpoint was trained with seed "
        << state.seed;
    KDDN_CHECK_GE(options_.epochs, state.completed_epochs)
        << "checkpoint already covers " << state.completed_epochs
        << " epochs but this run asks for " << options_.epochs;
    optimizer.ImportState(std::move(state.accumulators));
    best_auc = state.best_validation_auc;
    const auto& params = model->params().all();
    if (!state.best_params.empty()) {
      KDDN_CHECK_EQ(state.best_params.size(), params.size())
          << "best-parameter snapshot does not match the model";
      for (size_t i = 0; i < params.size(); ++i) {
        KDDN_CHECK_EQ(state.best_params[i].first, params[i]->name())
            << "best-parameter snapshot order mismatch";
        best_params.push_back(std::move(state.best_params[i].second));
      }
    }
    for (const eval::CurvePoint& point : state.curve) {
      recorder.Add(point);
    }
    // Replay the completed epochs' shuffles: the generator state and the
    // evolving example order end up exactly where the uninterrupted run's
    // would be, which is what makes resume bitwise-exact.
    for (int epoch = 1; epoch <= state.completed_epochs; ++epoch) {
      rng.Shuffle(&order);
    }
    start_epoch = state.completed_epochs + 1;
    if (options_.verbose) {
      std::fprintf(stderr, "[%s] resuming at epoch %d from %s\n",
                   model->name(), start_epoch, checkpoint_path.c_str());
    }
  }
  // ------------------------------------------------------------------------

  // Mini-batch assembly: a pure function of (split, order, seed, index),
  // so it can run on any thread at any time without changing a trained bit.
  BatchAssembler::Options assemble_options;
  assemble_options.batch_size = static_cast<size_t>(options_.batch_size);
  assemble_options.chunk_size = chunk_size;
  assemble_options.seed = options_.seed;
  assemble_options.horizon = horizon;
  const BatchAssembler assembler(&train, assemble_options);
  const size_t num_batches = assembler.BatchesPerEpoch(order.size());

  // Double-buffered batch slots: step k's chunk jobs read slots[k % 2] while
  // the assemble job writes slots[(k + 1) % 2] — a disjointness property of
  // the graph.
  PreparedBatch slots[2];

  // Per-step state shared with the graph jobs by reference. The main thread
  // writes these only between executor runs (Run is a barrier), jobs read
  // them only inside a run.
  size_t step = 0;
  int graph_epoch = 0;
  double epoch_loss = 0.0;

  // The per-chunk forward/backward body (chunk layout and GradSink usage are
  // what make training thread-count-invariant; see the class comment).
  auto process_chunk = [&](const PreparedBatch& batch, size_t chunk) {
    ag::GradSink* sink = sinks[chunk].get();
    sink->Reset();
    ag::GradSink::Scope scope(sink);
    double loss_sum = 0.0;
    const size_t chunk_begin = chunk * chunk_size;
    const size_t chunk_end = std::min(batch.size, chunk_begin + chunk_size);
    for (size_t b = chunk_begin; b < chunk_end; ++b) {
      const data::Example& example = *batch.examples[b];
      Rng example_rng(batch.dropout_seeds[b]);
      nn::ForwardContext ctx;
      ctx.training = true;
      ctx.rng = &example_rng;
      ag::NodePtr loss;
      {
        KDDN_TRACE_SPAN("train.forward");
        loss = ag::SoftmaxCrossEntropy(model->Logits(example, ctx),
                                       batch.labels[b]);
        loss_sum += ag::ScalarValue(loss);
      }
      // Mean-reduce over the batch so the step size is batch-invariant.
      KDDN_TRACE_SPAN("train.backward");
      ag::Backward(ag::Scale(loss, batch.inv_batch));
    }
    chunk_losses[chunk] = loss_sum;
  };

  // The training-step job graph (DESIGN.md §14), built once and re-run every
  // step: batch k+1's assembly is a root next to batch k's gradient chunks,
  // so featurisation overlaps the merge and optimizer step instead of
  // waiting behind a stage barrier. Determinism lives in the graph shape:
  // chunks write disjoint sinks, the merge fans them in chunk order, and the
  // optimizer is ordered after the merge.
  //
  //   assemble(k+1)   chunk_0(k) ... chunk_{n-1}(k)
  //        |               \             /
  //        |                grad_merge(k)
  //        |                     |
  //        (none)          optimizer_step(k)
  jobs::JobGraph graph;
  jobs::JobExecutor executor(pool);
  graph.AddJob("train.job.assemble", [&] {
    const size_t next = step + 1;
    if (next < num_batches) {
      assembler.AssembleInto(&slots[next % 2], &order, graph_epoch, next);
    }
  });
  std::vector<jobs::JobId> chunk_jobs;
  chunk_jobs.reserve(max_chunks);
  for (size_t c = 0; c < max_chunks; ++c) {
    chunk_jobs.push_back(graph.AddJob("train.job.grad_chunk", [&, c] {
      const PreparedBatch& batch = slots[step % 2];
      if (c < batch.num_chunks) {
        process_chunk(batch, c);
      }
    }));
  }
  const jobs::JobId merge = graph.AddJob("train.job.grad_merge", [&] {
    // Ordered reduction: chunk 0 first, then chunk 1, ... — the summation
    // order is fixed by the chunk layout, making the result independent of
    // which lane ran which chunk.
    KDDN_TRACE_SPAN("train.grad_merge");
    const PreparedBatch& batch = slots[step % 2];
    for (size_t chunk = 0; chunk < batch.num_chunks; ++chunk) {
      sinks[chunk]->MergeInto();
      epoch_loss += chunk_losses[chunk];
    }
  });
  const jobs::JobId optimizer_step =
      graph.AddJob("train.job.optimizer_step", [&] {
        KDDN_TRACE_SPAN("train.optimizer_step");
        optimizer.Step(model->params().all());
      });
  for (const jobs::JobId chunk_job : chunk_jobs) {
    graph.AddEdge(chunk_job, merge);
  }
  graph.AddEdge(merge, optimizer_step);
  graph.Finalize();

  for (int epoch = start_epoch; epoch <= options_.epochs; ++epoch) {
    KDDN_TRACE_SPAN("train.epoch");
    KDDN_FAULT_POINT("core.train.epoch");
    rng.Shuffle(&order);
    epoch_loss = 0.0;
    int seen = 0;
    graph_epoch = epoch;
    // Batch 0 is assembled inline; every later batch is assembled by the
    // previous step's graph run.
    assembler.AssembleInto(&slots[0], &order, epoch, 0);
    for (step = 0; step < num_batches; ++step) {
      executor.Run(&graph);
      seen += static_cast<int>(slots[step % 2].size);
    }

    KDDN_TRACE_SPAN("train.eval");
    eval::CurvePoint point;
    point.epoch = epoch;
    point.train_loss = seen > 0 ? epoch_loss / seen : 0.0;
    const EvalMetrics metrics =
        EvaluateSplitOn(model, validation, horizon, pool);
    point.validation_loss = metrics.mean_loss;
    point.validation_auc = metrics.auc;
    recorder.Add(point);
    if (point.validation_auc > best_auc) {
      best_auc = point.validation_auc;
      snapshot();
    }
    if (options_.verbose) {
      std::fprintf(stderr,
                   "[%s] epoch %d train_loss=%.4f val_loss=%.4f val_auc=%.4f\n",
                   model->name(), epoch, point.train_loss,
                   point.validation_loss, point.validation_auc);
    }
    if (checkpointing && (epoch % options_.checkpoint_every == 0 ||
                          epoch == options_.epochs)) {
      write_checkpoint(epoch);
    }
  }
  if (!best_params.empty() && !validation.empty()) {
    const auto& params = model->params().all();
    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->mutable_value() = best_params[i];
    }
  }
  return recorder;
}

std::vector<float> Trainer::Scores(models::NeuralDocumentModel* model,
                                   const std::vector<data::Example>& split) {
  std::vector<float> scores(split.size());
  ForEachGraphProbs(model, split, &GlobalThreadPool(),
                    [&](int64_t i, const std::vector<float>& probs) {
                      scores[i] = probs[1];
                    });
  return scores;
}

std::vector<int> Trainer::Labels(const std::vector<data::Example>& split,
                                 synth::Horizon horizon) {
  std::vector<int> labels;
  labels.reserve(split.size());
  for (const data::Example& example : split) {
    labels.push_back(example.Label(horizon) ? 1 : 0);
  }
  return labels;
}

double Trainer::EvaluateAuc(models::NeuralDocumentModel* model,
                            const std::vector<data::Example>& split,
                            synth::Horizon horizon) {
  if (split.empty()) {
    return 0.5;
  }
  const std::vector<int> labels = Labels(split, horizon);
  if (!HasBothClasses(labels)) {
    return 0.5;
  }
  return eval::RocAuc(Scores(model, split), labels);
}

Trainer::EvalMetrics Trainer::EvaluateSplit(
    models::NeuralDocumentModel* model, const std::vector<data::Example>& split,
    synth::Horizon horizon) {
  return EvaluateSplitOn(model, split, horizon, &GlobalThreadPool());
}

}  // namespace kddn::core
