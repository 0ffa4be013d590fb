#ifndef KDDN_PERFBENCH_REPORT_H_
#define KDDN_PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "models/neural_model.h"
#include "serve/frozen_model.h"
#include "serve/stats.h"
#include "synth/cohort.h"

namespace kddn::perfbench {

/// What the command line asked for.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int nproc = 1;  // Online CPUs; also the thread-pool size every run uses.
};

/// One metric of BENCHMARK.json: its name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// BENCHMARK.json's metric lists, in its order. Every workload prints every
/// metric of the list its run prints (README.md, "End-to-end metrics" and
/// "Per-layer metrics").
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// The result a run prints as its last stdout line:
///   {"correct": b, "attempted": n, "failed": n, "metrics": {name: {value,
///    unit}}}
/// An untraced run carries every end-to-end metric and a traced run every
/// per-layer one; workloads offer both kinds and the report keeps the kind
/// its run prints. An end-to-end metric the workload did not measure fails
/// the run. A per-layer metric of a layer the workload does not run is
/// printed as 0. A check that fails calls Fail() with the reason, which is
/// echoed on stdout and turns `correct` false.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  void EndToEnd(const std::string& name, double value) {
    if (!trace_) {
      Add(name, value);
    }
  }
  void Layer(const std::string& name, double value) {
    if (trace_) {
      Add(name, value);
    }
  }
  /// Counts `attempted` operations of which `failed` did not produce a
  /// correct output.
  void Count(int64_t attempted, int64_t failed);
  void Fail(const std::string& reason);

  std::string ToJson();

 private:
  const std::vector<MetricSpec>& Specs() const {
    return trace_ ? kPerLayerMetrics : kEndToEndMetrics;
  }
  void Add(const std::string& name, double value);

  const bool trace_;
  std::map<std::string, double> values_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Wall time of one call to `fn`, in seconds.
double TimeIt(const std::function<void()>& fn);

/// Wall time and process CPU time (every thread) of one call, in seconds.
/// CPU time leaves out time the hypervisor stole from the VM's vCPUs, so on
/// a shared host it follows the work done far more steadily than wall time
/// does (README.md, "Steadiness").
struct Cost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};
Cost Measure(const std::function<void()>& fn);

/// Nearest-rank median, by the same rule as the engine's own percentiles.
inline double Median(std::vector<double> samples) {
  return serve::PercentileOf(std::move(samples), 0.5);
}

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// Prints one human-readable line (stdout, prefixed "# ").
void Log(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// The set-ups of one run; `setup_s` is the median of their process CPU
/// times (the median wall time is logged).
class SetupTimes {
 public:
  /// Runs `setup` once and records what it cost.
  template <typename T>
  T Time(const std::function<T()>& setup) {
    T state{};
    const Cost cost = Measure([&] { state = setup(); });
    wall_s_.push_back(cost.wall_s);
    cpu_s_.push_back(cost.cpu_s);
    return state;
  }
  double total_cpu_s() const;
  void ReportTo(Report* report) const;

 private:
  std::vector<double> wall_s_, cpu_s_;
};

/// Runs `setup` at least three times and until it has taken a second and a
/// half of CPU time (at most nine times), keeping only the last result alive.
template <typename T>
T RepeatedSetup(SetupTimes* times, const std::function<T()>& setup) {
  T state{};
  for (int i = 0; i < 3 || (times->total_cpu_s() < 1.5 && i < 9); ++i) {
    state = T{};  // Release the previous state before building the next.
    state = times->Time(setup);
  }
  return state;
}

/// Switches the program's own spans (trace::SetEnabled) on for its lifetime.
class ProgramTrace {
 public:
  ProgramTrace();
  ~ProgramTrace();

  ProgramTrace(const ProgramTrace&) = delete;
  ProgramTrace& operator=(const ProgramTrace&) = delete;

  /// Spans lost so far to the per-thread rings wrapping around.
  static double Dropped();
};

/// Bit-exact float equality (distinguishes -0/+0, matches NaN payloads).
bool SameBits(float a, float b);

/// CPU time of the calling thread so far, in seconds.
double ThreadCpuSeconds();

/// Wall times of `fn` called once per item of `items`, in ms, over passes
/// repeated until `min_seconds` have elapsed (at least one pass).
template <typename Item>
std::vector<double> ItemLatenciesMs(
    const std::vector<Item>& items, double min_seconds,
    const std::function<void(const Item&)>& fn) {
  std::vector<double> latency_ms;
  const Clock::time_point start = Clock::now();
  do {
    for (const Item& item : items) {
      latency_ms.push_back(TimeIt([&] { fn(item); }) * 1e3);
    }
  } while (SecondsSince(start) < min_seconds);
  return latency_ms;
}

/// ROC AUC of `scores` against each example's label at `horizon`.
double ScoreAuc(const std::vector<float>& scores,
                const std::vector<const data::Example*>& examples,
                synth::Horizon horizon);

/// Per-layer replay of the frozen forward over a workload's own inputs, on
/// the calling thread with its own Workspace and kernels inline, as on an
/// engine lane: forward.us_per_note, forward.gflops,
/// forward.tensor_allocs_per_note and gemm.share_of_forward. Returns the
/// microseconds per note.
double ProfileForward(const serve::FrozenModel& frozen,
                    const models::ModelConfig& config, bool akddn,
                    const std::vector<const data::Example*>& sequence,
                    double min_seconds, Report* report);

/// The three workloads (README.md). Each adds its metrics to `report`.
void RunServeHttp(const RunConfig& config, Report* report);
void RunScoreBulk(const RunConfig& config, Report* report);
void RunTrain(const RunConfig& config, Report* report);

}  // namespace kddn::perfbench

#endif  // KDDN_PERFBENCH_REPORT_H_
