// The two serving workloads: serve_http (open-loop HTTP triage of short
// notes) and score_bulk (in-process bulk re-scoring of long documents).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/alloc_tracker.h"
#include "common/thread_pool.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "kb/concept_extractor.h"
#include "models/ak_ddn.h"
#include "models/bk_ddn.h"
#include "open_loop.h"
#include "report.h"
#include "serve/frozen_model.h"
#include "serve/http_server.h"
#include "serve/inference_engine.h"
#include "serve/json_util.h"
#include "serve/load_gen.h"
#include "synth/cohort.h"
#include "tensor/tensor_ops.h"

namespace kddn::perfbench {
namespace {

// serve_http fixed-rate phases and latency limit (README.md).
constexpr double kLightRps = 250.0;
constexpr double kHeavyRps = 500.0;
constexpr double kSloP99Ms = 20.0;
constexpr double kSloMaxFailedShare = 0.01;
// A phase's p99 needs at least ten samples beyond it.
constexpr int kMinPhaseRequests = 1100;
// Fixed-rate phases run as this many back-to-back sub-phases.
constexpr int kSubPhases = 3;
constexpr int kNotePool = 64;
// encode_us_per_item replays a larger pool (whose first kNotePool notes are
// the served ones), so that it does not follow one seed's mix of note styles.
constexpr int kEncodePool = 512;
constexpr int kEncodePassesPerReplay = 4;

/// The engine settings `run_experiment --http_port` ships.
serve::EngineOptions ShippedEngineOptions() {
  serve::EngineOptions options;
  options.max_batch = 16;
  options.flush_deadline_ms = 2;
  options.max_queue = 128;
  options.deadline_ms = 250;
  return options;
}

/// Corpus, vocabularies and a frozen snapshot trained for one epoch.
struct Snapshot {
  std::unique_ptr<kb::KnowledgeBase> kb;
  std::unique_ptr<kb::ConceptExtractor> extractor;
  data::DatasetOptions options;
  std::unique_ptr<data::MortalityDataset> dataset;
  models::ModelConfig config;
  std::unique_ptr<serve::FrozenModel> frozen;

  serve::NotePipeline Pipeline() const {
    serve::NotePipeline pipeline;
    pipeline.word_vocab = &dataset->word_vocab();
    pipeline.concept_vocab = &dataset->concept_vocab();
    pipeline.extractor = extractor.get();
    pipeline.options = options;
    return pipeline;
  }
};

Snapshot TrainSnapshot(synth::CorpusKind kind, int patients, int epochs,
                       uint64_t seed, bool akddn, int max_words,
                       int max_concepts) {
  Snapshot s;
  s.kb = std::make_unique<kb::KnowledgeBase>(kb::KnowledgeBase::BuildDefault());
  s.extractor = std::make_unique<kb::ConceptExtractor>(s.kb.get());
  synth::CohortConfig cohort_config;
  cohort_config.kind = kind;
  cohort_config.num_patients = patients;
  cohort_config.seed = seed;
  const synth::Cohort cohort = synth::Cohort::Generate(cohort_config, *s.kb);
  s.options.max_words = max_words;
  s.options.max_concepts = max_concepts;
  s.dataset = std::make_unique<data::MortalityDataset>(
      data::MortalityDataset::Build(cohort, *s.extractor, s.options));
  s.config.word_vocab_size = s.dataset->word_vocab().size();
  s.config.concept_vocab_size = s.dataset->concept_vocab().size();
  s.config.seed = 5;
  std::unique_ptr<models::NeuralDocumentModel> model;
  if (akddn) {
    model = std::make_unique<models::AkDdn>(s.config);
  } else {
    model = std::make_unique<models::BkDdn>(s.config);
  }
  core::TrainOptions train_options;
  train_options.epochs = epochs;
  core::Trainer(train_options)
      .Train(model.get(), s.dataset->train(), s.dataset->validation(),
             synth::Horizon::kWithinYear);
  s.frozen = std::make_unique<serve::FrozenModel>(
      serve::FrozenModel::Freeze(*model));
  return s;
}

/// Scores `examples` through FrozenModel::ScorePositive on the pool (each
/// lane uses its own thread-local Workspace; slots are disjoint).
std::vector<float> ReferenceScores(const serve::FrozenModel& frozen,
                                   const std::vector<data::Example>& examples) {
  std::vector<float> scores(examples.size());
  GlobalThreadPool().ParallelFor(
      static_cast<int64_t>(examples.size()), [&](int64_t i) {
        scores[static_cast<size_t>(i)] = frozen.ScorePositive(examples[i]);
      });
  return scores;
}

/// GEMM FLOPs of one frozen forward (multiply and add counted separately),
/// from the tensor shapes FrozenModel::Logits builds: AK-DDN co-attention
/// (two score products and two interaction products), one convolution GEMM
/// per branch and filter width, and the dense layer.
double ForwardFlops(const models::ModelConfig& config, bool akddn,
                    const data::Example& example) {
  const double d = config.embedding_dim;
  const double filters = config.num_filters;
  const int words = std::max<int>(1, static_cast<int>(example.word_ids.size()));
  const int concepts =
      std::max<int>(1, static_cast<int>(example.concept_ids.size()));
  const int max_width = *std::max_element(config.filter_widths.begin(),
                                          config.filter_widths.end());
  double flops = akddn ? 8.0 * words * concepts * d : 0.0;
  const double in_dim = akddn && config.akddn_residual ? 2.0 * d : d;
  for (const int rows : {words, concepts}) {
    const int padded = std::max(rows, max_width);
    for (const int width : config.filter_widths) {
      flops += 2.0 * (padded - width + 1) * filters * width * in_dim;
    }
  }
  flops += 2.0 * 2.0 * filters * config.filter_widths.size() * 2.0;
  return flops;
}

}  // namespace

double ProfileForward(const serve::FrozenModel& frozen,
                    const models::ModelConfig& config, bool akddn,
                    const std::vector<const data::Example*>& sequence,
                    double min_seconds, Report* report) {
  ThreadPool::ScopedWorkerMark inline_kernels;
  serve::FrozenModel::Workspace ws;
  double flops_per_pass = 0.0;
  for (const data::Example* example : sequence) {  // Warm the workspace.
    frozen.ScorePositive(*example, &ws);
    flops_per_pass += ForwardFlops(config, akddn, *example);
  }
  int passes = 0;
  uint64_t allocations = 0;
  const Clock::time_point start = Clock::now();
  {
    alloc::AllocScope scope("perfbench.forward");
    do {
      for (const data::Example* example : sequence) {
        frozen.ScorePositive(*example, &ws);
      }
      ++passes;
    } while (SecondsSince(start) < min_seconds);
    allocations = scope.allocations();
  }
  const double seconds = SecondsSince(start);
  const double notes = static_cast<double>(passes) * sequence.size();

  ResetGemmTiming();
  SetGemmTimingEnabled(true);
  const double timed_pass = TimeIt([&] {
    for (const data::Example* example : sequence) {
      frozen.ScorePositive(*example, &ws);
    }
  });
  SetGemmTimingEnabled(false);
  const double gemm_seconds = GetGemmTiming().total_ns * 1e-9;
  Log("layer forward: %.0f notes in %.3f s on one thread; %.3g GEMM FLOP per "
      "pass (computed from tensor shapes); GEMM %.4f s of a %.4f s pass",
      notes, seconds, flops_per_pass, gemm_seconds, timed_pass);
  const double us_per_note = seconds * 1e6 / notes;
  report->Layer("forward.us_per_note", us_per_note);
  report->Layer("forward.gflops", flops_per_pass * passes / seconds * 1e-9);
  report->Layer("forward.tensor_allocs_per_note", allocations / notes);
  report->Layer("gemm.share_of_forward", gemm_seconds / timed_pass);
  return us_per_note;
}

namespace {

/// One replay of InferenceEngine::EncodeNote over `texts`, in order, on the
/// calling thread; the wall time of each call, in ms.
std::vector<double> ReplayEncode(serve::InferenceEngine* engine,
                                 const std::vector<const std::string*>& texts) {
  return ItemLatenciesMs<const std::string*>(
      texts, 0.0,
      [&](const std::string* const& text) { engine->EncodeNote(*text); });
}

double Mean(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0) / values.size();
}

/// Per-layer replay of ConceptExtractor on distinct notes: what a cache
/// miss costs.
void ProfileExtract(const Snapshot& s, const std::vector<std::string>& texts,
                    double min_seconds, Report* report) {
  int64_t calls = 0;
  const Clock::time_point start = Clock::now();
  do {
    for (const std::string& text : texts) {
      kb::ConceptExtractor::CuiSequence(
          s.extractor->Extract(text, s.options.extraction));
    }
    calls += static_cast<int64_t>(texts.size());
  } while (SecondsSince(start) < min_seconds);
  const double seconds = SecondsSince(start);
  Log("layer extract: %lld extractions in %.3f s",
      static_cast<long long>(calls), seconds);
  report->Layer("extract.us_per_miss", seconds * 1e6 / calls);
}

/// Batcher metrics from two stats snapshots around a measured phase.
void ReportEngine(const serve::StatsSnapshot& before,
                  const serve::StatsSnapshot& after, double forward_us,
                  Report* report) {
  const double batches = static_cast<double>(after.batches - before.batches);
  const double requests =
      static_cast<double>(after.requests - before.requests);
  const double hits =
      static_cast<double>(after.cache_hits - before.cache_hits);
  const double lookups =
      hits + static_cast<double>(after.cache_misses - before.cache_misses);
  Log("layer engine: %.0f requests in %.0f batches; p50 %.3f ms, p99 %.3f ms "
      "(enqueue to scored); concept cache %.0f hits of %.0f lookups",
      requests, batches, after.p50_latency_ms, after.p99_latency_ms, hits,
      lookups);
  report->Layer("engine.batch_size.mean", batches > 0 ? requests / batches : 0);
  report->Layer("engine.latency_ms.p50", after.p50_latency_ms);
  report->Layer("engine.latency_ms.p99", after.p99_latency_ms);
  report->Layer("engine.queue_wait_ms.p50",
                after.p50_latency_ms - forward_us * 1e-3);
  report->Layer("engine.shed", static_cast<double>(after.shed));
  report->Layer("engine.timeouts", static_cast<double>(after.timeouts));
  report->Layer("engine.degraded", static_cast<double>(after.degraded));
  report->Layer("encode.cache_hit_ratio",
                lookups > 0 ? hits / lookups : 0.0);
}

// ---------------------------------------------------------------- serve_http

struct HttpState {
  Snapshot snapshot;
  std::vector<std::string> notes;
  std::vector<std::string> encode_notes;  // kEncodePool notes.
  // Replays encode_notes, hot in its own concept cache, so that the serving
  // engine's counters hold the served requests only.
  std::unique_ptr<serve::InferenceEngine> encode_engine;
  std::vector<std::string> wire;
  std::vector<data::Example> encoded;
  std::vector<float> reference;
  std::string fingerprint_hex;
  std::unique_ptr<serve::InferenceEngine> engine;
  std::unique_ptr<serve::HttpServer> server;
  // Load-client totals over every phase, for the harness check.
  int sent = 0;
  int failed = 0;
  double worst_late_p99_ms = 0.0;
};

std::unique_ptr<HttpState> SetUpHttp(const RunConfig& config) {
  auto state = std::make_unique<HttpState>();
  // run_experiment's NURSING cohort, trained for two epochs: enough for
  // test_auc to hold still from seed to seed.
  state->snapshot = TrainSnapshot(synth::CorpusKind::kNursing, 1200, 2,
                                  config.seed, /*akddn=*/false, 160, 64);
  const Snapshot& s = state->snapshot;
  state->notes = serve::BuildNotePool(config.seed, kNotePool);
  state->engine = std::make_unique<serve::InferenceEngine>(
      s.frozen.get(), s.Pipeline(), ShippedEngineOptions());
  // Encoding through the serving engine fills its concept cache, which is
  // the warm state this workload measures.
  for (const std::string& note : state->notes) {
    state->encoded.push_back(state->engine->EncodeNote(note));
    state->wire.push_back(HttpPostRequest(
        "/v1/score", "{\"note\": \"" + serve::JsonEscape(note) + "\"}"));
  }
  state->encode_notes = serve::BuildNotePool(config.seed, kEncodePool);
  state->encode_engine = std::make_unique<serve::InferenceEngine>(
      s.frozen.get(), s.Pipeline(), ShippedEngineOptions());
  for (const std::string& note : state->encode_notes) {
    state->encode_engine->EncodeNote(note);
  }
  state->reference = ReferenceScores(*s.frozen, state->encoded);
  state->fingerprint_hex = serve::FingerprintToHex(s.frozen->fingerprint());
  {
    // Warm every executor lane's Workspace through a throwaway engine, so
    // the serving engine's latency record holds measured requests only.
    serve::InferenceEngine warm(s.frozen.get());
    std::vector<std::future<serve::Scored>> futures;
    for (int round = 0; round < 4; ++round) {
      for (const data::Example& example : state->encoded) {
        futures.push_back(warm.ScoreAsync(example));
      }
    }
    for (auto& future : futures) {
      future.get();
    }
  }
  state->server = std::make_unique<serve::HttpServer>(state->engine.get());
  state->server->Start();
  return state;
}

struct PhaseSummary {
  double offered_rps = 0.0;  // Requests over the schedule's span.
  int requests = 0;
  int failed = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool meets_slo = false;
  double cpu_ms_per_request = 0.0;  // Process CPU time.
  std::vector<double> latency_ms;   // Per request; failed ones infinite.
};

/// The schedule and note sequence of one phase derive from the run seed and
/// a per-phase tag, so phases differ and reruns repeat them exactly.
uint64_t PhaseSeed(const RunConfig& config, uint64_t phase) {
  return config.seed * 1000003 + phase;
}

/// Runs one open-loop phase, checks every response, and summarises it.
PhaseSummary RunPhase(const RunConfig& config, HttpState* state,
                      const std::string& name, double rate, int requests,
                      uint64_t phase_seed, Report* report) {
  const std::vector<double> due =
      PoissonSchedule(PhaseSeed(config, phase_seed), rate, requests);
  const std::vector<int> payloads = serve::BuildRequestSchedule(
      PhaseSeed(config, phase_seed), requests, kNotePool);
  OpenLoopOptions options;
  options.port = state->server->port();
  options.max_connections = config.nproc;
  OpenLoopResult result;
  // Server, engine and client run in this process, so its CPU time is the
  // whole stack's.
  const Cost cost = Measure(
      [&] { result = RunOpenLoop(options, state->wire, due, payloads); });

  PhaseSummary summary;
  summary.requests = requests;
  summary.offered_rps = requests / due.back();
  summary.cpu_ms_per_request = cost.cpu_s * 1e3 / requests;
  std::vector<double>& latency = summary.latency_ms;
  std::vector<double> late;
  for (const RequestRecord& record : result.records) {
    bool ok = record.answered() && record.status == 200;
    if (ok) {
      const size_t score_at = record.body.find("\"score\": ");
      const size_t print_at = record.body.find("\"fingerprint\": \"");
      ok = score_at != std::string::npos && print_at != std::string::npos &&
           SameBits(std::strtof(record.body.c_str() + score_at + 9, nullptr),
                    state->reference[record.payload]) &&
           record.body.compare(print_at + 16, state->fingerprint_hex.size(),
                               state->fingerprint_hex) == 0;
      if (!ok) {
        report->Fail(name + ": response differs from the in-process "
                            "reference: " + record.body);
      }
    }
    summary.failed += ok ? 0 : 1;
    // A failed request misses any latency limit.
    latency.push_back(ok ? record.latency_ms() : INFINITY);
    late.push_back(record.late_ms());
  }
  report->Count(requests, summary.failed);
  const double late_p99 = serve::PercentileOf(late, 0.99);
  state->sent += requests;
  state->failed += summary.failed;
  state->worst_late_p99_ms = std::max(state->worst_late_p99_ms, late_p99);
  summary.p50_ms = serve::PercentileOf(latency, 0.5);
  summary.p99_ms = serve::PercentileOf(latency, 0.99);
  // Backlog growth: the last quarter of the phase waits clearly longer than
  // the first.
  const size_t quarter = latency.size() / 4;
  double first = 0.0, last = 0.0;
  for (size_t i = 0; i < quarter; ++i) {
    first += latency[i];
    last += latency[latency.size() - 1 - i];
  }
  const bool backlog_grows = (last - first) / quarter > kSloP99Ms / 4;
  summary.meets_slo = summary.p99_ms <= kSloP99Ms &&
                      summary.failed <= kSloMaxFailedShare * requests &&
                      !backlog_grows;
  Log("phase %s: offered %.1f req/s, %d sent over %d connections, %d failed, "
      "p50 %.3f ms, p99 %.3f ms (%d samples beyond), late p99 %.3f ms, "
      "backlog %s, slo %s",
      name.c_str(), summary.offered_rps, requests, result.connections_opened,
      summary.failed, summary.p50_ms, summary.p99_ms,
      requests - static_cast<int>(std::ceil(0.99 * requests)),
      late_p99, backlog_grows ? "grows" : "steady",
      summary.meets_slo ? "met" : "missed");
  return summary;
}

/// One fixed-rate phase from its sub-phases. p50, p99 and CPU per request
/// are medians over the sub-phases, the p99s each with at least ten samples
/// beyond them, so one stall on a shared host moves one sub-phase rather
/// than the result.
PhaseSummary Summarise(const std::string& name,
                       const std::vector<PhaseSummary>& subs) {
  PhaseSummary total;
  double span_s = 0.0;
  int meeting_slo = 0;
  std::vector<double> p50s, p99s, cpu_ms;
  for (const PhaseSummary& sub : subs) {
    total.requests += sub.requests;
    total.failed += sub.failed;
    meeting_slo += sub.meets_slo ? 1 : 0;
    span_s += sub.requests / sub.offered_rps;
    p50s.push_back(sub.p50_ms);
    p99s.push_back(sub.p99_ms);
    cpu_ms.push_back(sub.cpu_ms_per_request);
    total.latency_ms.insert(total.latency_ms.end(), sub.latency_ms.begin(),
                            sub.latency_ms.end());
  }
  total.offered_rps = total.requests / span_s;
  total.p50_ms = Median(p50s);
  total.p99_ms = Median(p99s);
  total.cpu_ms_per_request = Median(cpu_ms);
  total.meets_slo = 2 * meeting_slo > static_cast<int>(subs.size());
  Log("phase %s: %d requests; medians of %zu sub-phases: p50 %.3f ms, p99 "
      "%.3f ms, %.4f CPU ms per request",
      name.c_str(), total.requests, subs.size(), total.p50_ms, total.p99_ms,
      total.cpu_ms_per_request);
  return total;
}

struct FixedRatePhases {
  PhaseSummary light;
  PhaseSummary heavy;
};

/// The light and heavy phases as kSubPhases sub-phases each, light and heavy
/// alternating, with `between` called after each: both phases then span the
/// whole run, so a stretch of host contention reaches one sub-phase of each
/// rather than all of one.
FixedRatePhases RunFixedRates(const RunConfig& config, HttpState* state,
                              int light_requests, int heavy_requests,
                              const std::function<void()>& between,
                              Report* report) {
  std::vector<PhaseSummary> light, heavy;
  for (int k = 0; k < kSubPhases; ++k) {
    const std::string sub = "." + std::to_string(k + 1);
    light.push_back(RunPhase(config, state, "light" + sub, kLightRps,
                             light_requests, 1 * kSubPhases + k, report));
    between();
    heavy.push_back(RunPhase(config, state, "heavy" + sub, kHeavyRps,
                             heavy_requests, 2 * kSubPhases + k, report));
    between();
  }
  return {Summarise("light", light), Summarise("heavy", heavy)};
}

/// Highest offered rate meeting the SLO: step up (or down) from the heavy
/// phase by 1.25x until the limit is bracketed, then bisect three times. A
/// rate counts as missing only if two trials in a row miss, so one stall on
/// a shared host cannot end the search early.
double SearchMaxRate(const RunConfig& config, HttpState* state,
                     const PhaseSummary& heavy, double seconds,
                     Report* report) {
  double lo_rate = 0.0, hi_rate = 0.0, best_offered = 0.0;
  (heavy.meets_slo ? lo_rate : hi_rate) = kHeavyRps;
  if (heavy.meets_slo) {
    best_offered = heavy.offered_rps;
  }
  const Clock::time_point start = Clock::now();
  for (int step = 0; step < 16; ++step) {
    const bool bracketed = lo_rate > 0.0 && hi_rate > 0.0;
    if ((bracketed && (hi_rate / lo_rate < 1.04 ||
                       SecondsSince(start) > seconds)) ||
        SecondsSince(start) > 3 * seconds) {
      break;
    }
    const double rate = hi_rate == 0.0   ? lo_rate * 1.25
                        : lo_rate == 0.0 ? hi_rate / 1.25
                                         : std::sqrt(lo_rate * hi_rate);
    const int requests =
        std::max(kMinPhaseRequests, static_cast<int>(rate * seconds / 8));
    PhaseSummary summary =
        RunPhase(config, state, "search", rate, requests, 1000 + step, report);
    if (!summary.meets_slo) {
      summary = RunPhase(config, state, "search.retry", rate, requests,
                         2000 + step, report);
    }
    if (summary.meets_slo) {
      lo_rate = rate;
      best_offered = summary.offered_rps;
    } else {
      hi_rate = rate;
    }
  }
  return best_offered;
}

}  // namespace

void RunServeHttp(const RunConfig& config, Report* report) {
  SetupTimes setup_times;
  std::unique_ptr<HttpState> state = RepeatedSetup<std::unique_ptr<HttpState>>(
      &setup_times, [&] { return SetUpHttp(config); });
  setup_times.ReportTo(report);
  Log("serving BK-DDN snapshot %s, engine max_batch 16 / flush 2 ms / "
      "max_queue 128 / deadline 250 ms, client connections %d",
      state->fingerprint_hex.c_str(), config.nproc);
  const double seconds = config.seconds;
  // Requests per sub-phase: about two thirds of the run at the light rate,
  // the rest at the heavy rate (the traced run then also searches).
  const int light_requests =
      std::max(kMinPhaseRequests,
               static_cast<int>(0.65 * seconds * kLightRps / kSubPhases));
  const int heavy_requests =
      std::max(kMinPhaseRequests,
               static_cast<int>(0.35 * seconds * kHeavyRps / kSubPhases));

  // EncodeNote replays over the encode pool, hot in the concept cache, after
  // every sub-phase, so that host contention of the moment moves a few
  // replays rather than the result; each pass's CPU time per note.
  std::vector<double> encode_us;
  const auto replay_encode = [&] {
    for (int pass = 0; pass < kEncodePassesPerReplay; ++pass) {
      const double cpu_start = ThreadCpuSeconds();
      for (const std::string& note : state->encode_notes) {
        state->encode_engine->EncodeNote(note);
      }
      encode_us.push_back((ThreadCpuSeconds() - cpu_start) * 1e6 /
                          state->encode_notes.size());
    }
  };

  // The light phase's note sequence, replayed through single layers.
  const Snapshot& s = state->snapshot;
  std::vector<const data::Example*> examples;
  std::vector<const std::string*> texts;
  for (int k = 0; k < kSubPhases; ++k) {
    for (const int note : serve::BuildRequestSchedule(
             PhaseSeed(config, 1 * kSubPhases + k), light_requests,
             kNotePool)) {
      examples.push_back(&state->encoded[note]);
      texts.push_back(&state->notes[note]);
    }
  }

  const serve::StatsSnapshot before = state->engine->stats();
  const auto [light, heavy] = RunFixedRates(
      config, state.get(), light_requests, heavy_requests, replay_encode,
      report);
  const serve::StatsSnapshot after = state->engine->stats();
  report->EndToEnd("latency_p50_ms", light.p50_ms);
  report->EndToEnd("cpu_ms_per_item", light.cpu_ms_per_request);
  Log("encode: %zu passes over %d notes, median %.3f CPU us per note "
      "(passes ranged %.3f to %.3f)",
      encode_us.size(), kEncodePool, Median(encode_us),
      *std::min_element(encode_us.begin(), encode_us.end()),
      *std::max_element(encode_us.begin(), encode_us.end()));
  report->EndToEnd("encode_us_per_item", Median(encode_us));

  // Ranking quality of the served snapshot on its cohort's test split.
  std::vector<const data::Example*> test;
  for (const data::Example& example : s.dataset->test()) {
    test.push_back(&example);
  }
  report->EndToEnd("test_auc",
                   ScoreAuc(ReferenceScores(*s.frozen, s.dataset->test()),
                            test, synth::Horizon::kWithinYear));
  if (!config.trace) {
    return;
  }

  // The tail and the saturation point move with CPU time stolen from the
  // host's vCPUs far beyond any regression bound (README.md, "Steadiness"),
  // so they are reported with the per-layer figures, unbounded.
  report->Layer("latency_p99_ms", light.p99_ms);
  report->Layer("latency_p50_ms.heavy", heavy.p50_ms);
  report->Layer("latency_p99_ms.heavy", heavy.p99_ms);
  const double max_rps =
      SearchMaxRate(config, state.get(), heavy, 0.3 * seconds, report);
  if (max_rps <= kHeavyRps) {
    Log("note: max_rps_at_slo %.1f is not above the heavy rate %.0f", max_rps,
        kHeavyRps);
  }
  report->Layer("max_rps_at_slo", max_rps);

  const double forward_us =
      ProfileForward(*s.frozen, s.config, /*akddn=*/false, examples, 0.5,
                     report);
  ReportEngine(before, after, forward_us, report);
  report->Layer("encode.us_per_note",
                Mean(ReplayEncode(state->engine.get(), texts)) * 1e3);
  ProfileExtract(s, state->notes, 0.3, report);
  const serve::HttpServerStatsSnapshot server = state->server->stats();
  // Client p50 minus engine p50, both over the two fixed-rate phases.
  std::vector<double> fixed_rate_ms = light.latency_ms;
  fixed_rate_ms.insert(fixed_rate_ms.end(), heavy.latency_ms.begin(),
                       heavy.latency_ms.end());
  report->Layer("http.overhead_ms.p50",
                Median(fixed_rate_ms) - after.p50_latency_ms);
  report->Layer("http.non2xx",
                static_cast<double>(
                    server.responses_4xx + server.responses_429 +
                    server.responses_503 + server.responses_5xx));
  report->Layer("http.dropped_connections",
                static_cast<double>(server.dropped_connections));

  // Tracing overhead: the first heavy sub-phase again with the program's
  // spans on.
  PhaseSummary traced;
  double dropped = 0.0;
  {
    ProgramTrace tracing;
    traced = RunPhase(config, state.get(), "heavy.traced", kHeavyRps,
                      heavy_requests, 2 * kSubPhases, report);
    dropped = ProgramTrace::Dropped();
  }
  Log("trace overhead base: heavy p50 %.3f ms untraced, %.3f ms traced",
      heavy.p50_ms, traced.p50_ms);
  report->Layer("trace.overhead_pct",
                (traced.p50_ms - heavy.p50_ms) / heavy.p50_ms * 100);
  report->Layer("trace.spans_dropped", dropped);
  report->Layer("loadgen.late_ms.p99", state->worst_late_p99_ms);
  report->Layer("loadgen.sent", state->sent);
  report->Layer("loadgen.failed", state->failed);
}

// ---------------------------------------------------------------- score_bulk

namespace {

constexpr int kBulkTrainPatients = 400;
constexpr int kBulkDocuments = 1400;  // Above the engine's 1024-entry cache.
constexpr size_t kBulkReplayDocuments = 512;
// Documents re-scored one at a time for latency_p50_ms: the first ones of
// the corpus, which in-order passes over the ~1350 documents leave outside
// the 1024-entry cache.
constexpr size_t kBulkSingleDocuments = 320;

struct BulkState {
  Snapshot snapshot;
  std::vector<std::string> documents;
  std::vector<data::Example> encoded;
  std::vector<int> labels;  // One-year mortality of each document's patient.
  std::vector<float> reference;
  std::unique_ptr<serve::InferenceEngine> engine;
};

std::unique_ptr<BulkState> SetUpBulk(const RunConfig& config) {
  auto state = std::make_unique<BulkState>();
  state->snapshot = TrainSnapshot(synth::CorpusKind::kRad, kBulkTrainPatients,
                                  1, config.seed, /*akddn=*/true, 256, 96);
  const Snapshot& s = state->snapshot;
  synth::CohortConfig cohort_config;
  cohort_config.kind = synth::CorpusKind::kRad;
  cohort_config.num_patients = kBulkDocuments;
  cohort_config.seed = config.seed + 0x5eed;
  const synth::Cohort documents = synth::Cohort::Generate(cohort_config, *s.kb);
  for (const synth::SyntheticPatient& patient : documents.patients()) {
    state->documents.push_back(patient.text);
    state->labels.push_back(
        synth::IsPositive(patient.outcome, synth::Horizon::kWithinYear) ? 1
                                                                        : 0);
  }
  {
    // Reference encodings through a cache-less engine, so the measured
    // engine starts cold.
    serve::EngineOptions options;
    options.cache_capacity = 0;
    serve::InferenceEngine encoder(s.frozen.get(), s.Pipeline(), options);
    state->encoded.resize(state->documents.size());
    GlobalThreadPool().ParallelFor(
        static_cast<int64_t>(state->documents.size()), [&](int64_t i) {
          state->encoded[i] = encoder.EncodeNote(state->documents[i]);
        });
    state->reference = ReferenceScores(*s.frozen, state->encoded);
    std::vector<std::future<serve::Scored>> futures;
    for (const data::Example& example : state->encoded) {  // Warm the lanes.
      futures.push_back(encoder.ScoreAsync(example));
    }
    for (auto& future : futures) {
      future.get();
    }
  }
  state->engine = std::make_unique<serve::InferenceEngine>(
      s.frozen.get(), s.Pipeline(), ShippedEngineOptions());
  return state;
}

/// One pass over every document: encode on this thread, submit, and keep
/// two batches outstanding. Sets `*submit_cpu_s` to this thread's CPU time.
Cost ScorePass(BulkState* state, double* submit_cpu_s, Report* report) {
  const size_t window = 2 * ShippedEngineOptions().max_batch;
  const uint64_t fingerprint = state->snapshot.frozen->fingerprint();
  std::deque<std::pair<size_t, std::future<serve::Scored>>> pending;
  int64_t failed = 0;
  auto retire = [&] {
    auto& [index, future] = pending.front();
    try {
      const serve::Scored scored = future.get();
      if (!SameBits(scored.score, state->reference[index]) ||
          scored.fingerprint != fingerprint) {
        ++failed;
        report->Fail("score_bulk: document " + std::to_string(index) +
                     " scored differently from the in-process reference");
      }
    } catch (const serve::ShedError&) {
      ++failed;  // Shed past its deadline: a failed request, not a wrong score.
    }
    pending.pop_front();
  };
  const double cpu_start = ThreadCpuSeconds();
  const Cost cost = Measure([&] {
    for (size_t i = 0; i < state->documents.size(); ++i) {
      pending.emplace_back(
          i, state->engine->ScoreAsync(
                 state->engine->EncodeNote(state->documents[i])));
      if (pending.size() >= window) {
        retire();
      }
    }
    while (!pending.empty()) {
      retire();
    }
  });
  *submit_cpu_s = ThreadCpuSeconds() - cpu_start;
  report->Count(static_cast<int64_t>(state->documents.size()), failed);
  if (failed > 0) {
    Log("score_bulk: %lld of %zu documents failed in this pass",
        static_cast<long long>(failed), state->documents.size());
  }
  return cost;
}

/// Per-pass throughput and CPU cost over passes run until `seconds` have
/// elapsed (at least three).
struct BulkRates {
  std::vector<double> notes_per_s;
  std::vector<double> cpu_ms_per_note;
  std::vector<double> submit_cpu_us_per_note;
};

/// Scores the first kBulkSingleDocuments documents one at a time, each
/// waiting for its score before the next is encoded: what one clinician
/// re-scoring one long note waits for. Returns the latencies in ms.
std::vector<double> ScoreSingly(BulkState* state, Report* report) {
  const uint64_t fingerprint = state->snapshot.frozen->fingerprint();
  std::vector<size_t> indices(
      std::min(kBulkSingleDocuments, state->documents.size()));
  std::iota(indices.begin(), indices.end(), size_t{0});
  int64_t failed = 0;
  std::vector<double> latency_ms = ItemLatenciesMs<size_t>(
      indices, 0.0, [&](const size_t& i) {
        const serve::Scored scored =
            state->engine
                ->ScoreAsync(state->engine->EncodeNote(state->documents[i]))
                .get();
        if (!SameBits(scored.score, state->reference[i]) ||
            scored.fingerprint != fingerprint) {
          ++failed;
          report->Fail("score_bulk: document " + std::to_string(i) +
                       " scored alone differs from the in-process reference");
        }
      });
  report->Count(static_cast<int64_t>(indices.size()), failed);
  return latency_ms;
}

BulkRates ScorePasses(BulkState* state, double seconds, Report* report) {
  BulkRates rates;
  const double notes = static_cast<double>(state->documents.size());
  const Clock::time_point start = Clock::now();
  while (rates.notes_per_s.size() < 3 || SecondsSince(start) < seconds) {
    double submit_cpu_s = 0.0;
    const Cost cost = ScorePass(state, &submit_cpu_s, report);
    rates.notes_per_s.push_back(notes / cost.wall_s);
    rates.cpu_ms_per_note.push_back(cost.cpu_s * 1e3 / notes);
    rates.submit_cpu_us_per_note.push_back(submit_cpu_s * 1e6 / notes);
  }
  return rates;
}

}  // namespace

void RunScoreBulk(const RunConfig& config, Report* report) {
  SetupTimes setup_times;
  std::unique_ptr<BulkState> state = RepeatedSetup<std::unique_ptr<BulkState>>(
      &setup_times, [&] { return SetUpBulk(config); });
  setup_times.ReportTo(report);
  const serve::StatsSnapshot before = state->engine->stats();
  const BulkRates rates =
      ScorePasses(state.get(), 0.7 * config.seconds, report);
  const serve::StatsSnapshot after = state->engine->stats();
  const std::vector<double> single_ms = ScoreSingly(state.get(), report);
  const double notes_per_s = Median(rates.notes_per_s);
  const double cpu_ms_per_note = Median(rates.cpu_ms_per_note);
  const double submit_cpu_us = Median(rates.submit_cpu_us_per_note);
  Log("score_bulk: %zu passes of %zu distinct documents, median %.1f notes/s "
      "(passes ranged %.1f to %.1f), %.4f CPU ms per note, of which %.1f us "
      "on the encoding thread",
      rates.notes_per_s.size(), state->documents.size(), notes_per_s,
      *std::min_element(rates.notes_per_s.begin(), rates.notes_per_s.end()),
      *std::max_element(rates.notes_per_s.begin(), rates.notes_per_s.end()),
      cpu_ms_per_note, submit_cpu_us);
  Log("score_bulk: %zu documents scored one at a time, p50 %.3f ms, p99 "
      "%.3f ms",
      single_ms.size(), Median(single_ms),
      serve::PercentileOf(single_ms, 0.99));
  report->EndToEnd("cpu_ms_per_item", cpu_ms_per_note);
  // The encoding thread does little besides EncodeNote: ScoreAsync only
  // enqueues, and waiting on a score takes no CPU time.
  report->EndToEnd("encode_us_per_item", submit_cpu_us);
  report->EndToEnd("latency_p50_ms", Median(single_ms));
  report->Layer("latency_p99_ms", serve::PercentileOf(single_ms, 0.99));

  // Ranking quality of the snapshot on the re-scored corpus, none of which
  // it was trained on.
  report->EndToEnd("test_auc", eval::RocAuc(state->reference, state->labels));
  if (!config.trace) {
    return;
  }
  report->Layer("notes_per_s", notes_per_s);

  // Encode replays the whole corpus in order, so its cache misses as the
  // passes do; the forward replays the first kBulkReplayDocuments documents.
  std::vector<const data::Example*> examples;
  std::vector<const std::string*> texts;
  for (size_t i = 0; i < state->documents.size(); ++i) {
    if (i < kBulkReplayDocuments) {
      examples.push_back(&state->encoded[i]);
    }
    texts.push_back(&state->documents[i]);
  }
  const double encode_ms = Mean(ReplayEncode(state->engine.get(), texts));
  Log("layer encode: %zu notes, mean %.3f us", texts.size(), encode_ms * 1e3);
  report->Layer("encode.us_per_note", encode_ms * 1e3);

  const double forward_us =
      ProfileForward(*state->snapshot.frozen, state->snapshot.config,
                     /*akddn=*/true, examples, 1.0, report);
  ReportEngine(before, after, forward_us, report);
  ProfileExtract(state->snapshot, state->documents, 0.5, report);

  double traced = 0.0;
  double dropped = 0.0;
  {
    ProgramTrace tracing;
    traced = Median(
        ScorePasses(state.get(), 0.2 * config.seconds, report).notes_per_s);
    dropped = ProgramTrace::Dropped();
  }
  Log("trace overhead base: %.1f notes/s untraced, %.1f traced", notes_per_s,
      traced);
  report->Layer("trace.overhead_pct", (notes_per_s / traced - 1) * 100);
  report->Layer("trace.spans_dropped", dropped);
}

}  // namespace kddn::perfbench
