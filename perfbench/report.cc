#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <numeric>

#include "common/trace.h"
#include "eval/metrics.h"

namespace kddn::perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"latency_p50_ms", "ms"},
    {"cpu_ms_per_item", "ms"},
    {"encode_us_per_item", "us"},
    {"test_auc", "auc"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"latency_p99_ms", "ms"},
    {"latency_p50_ms.heavy", "ms"},
    {"latency_p99_ms.heavy", "ms"},
    {"max_rps_at_slo", "req/s"},
    {"notes_per_s", "notes/s"},
    {"epoch_s", "s"},
    {"build_s", "s"},
    {"loadgen.late_ms.p99", "ms"},
    {"loadgen.sent", "count"},
    {"loadgen.failed", "count"},
    {"http.overhead_ms.p50", "ms"},
    {"http.non2xx", "count"},
    {"http.dropped_connections", "count"},
    {"engine.batch_size.mean", "requests"},
    {"engine.latency_ms.p50", "ms"},
    {"engine.latency_ms.p99", "ms"},
    {"engine.queue_wait_ms.p50", "ms"},
    {"engine.shed", "count"},
    {"engine.timeouts", "count"},
    {"engine.degraded", "count"},
    {"encode.us_per_note", "us"},
    {"encode.cache_hit_ratio", "ratio"},
    {"extract.us_per_miss", "us"},
    {"forward.us_per_note", "us"},
    {"forward.gflops", "GFLOP/s"},
    {"forward.tensor_allocs_per_note", "count"},
    {"gemm.share_of_forward", "ratio"},
    {"gemm.share_of_train", "ratio"},
    {"train.forward_us_per_example", "us"},
    {"train.backward_us_per_example", "us"},
    {"train.optimizer_step_ms", "ms"},
    {"train.eval_s", "s"},
    {"train.tensor_allocs_per_example", "count"},
    {"jobs.speedup_nproc", "ratio"},
    {"jobs.epoch_s_1thread", "s"},
    {"dataset.text_us_per_patient", "us"},
    {"dataset.extract_us_per_patient", "us"},
    {"dataset.build_speedup", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.spans_dropped", "count"},
};

void Report::Add(const std::string& name, double value) {
  const bool declared =
      std::any_of(Specs().begin(), Specs().end(),
                  [&](const MetricSpec& spec) { return name == spec.name; });
  if (!declared) {
    Fail("metric " + name + " is not in the manifest");
  } else if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
  } else {
    values_[name] = value;
  }
}

void Report::Count(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Fail(const std::string& reason) {
  Log("CHECK FAILED: %s", reason.c_str());
  correct_ = false;
}

std::string Report::ToJson() {
  std::string metrics;
  for (const MetricSpec& spec : Specs()) {
    const auto found = values_.find(spec.name);
    double value = 0.0;  // A layer this workload does not run.
    if (found != values_.end()) {
      value = found->second;
    } else if (!trace_) {
      Fail(std::string("end-to-end metric ") + spec.name + " was not measured");
    }
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g", value);
    metrics += (metrics.empty() ? "\"" : ", \"") + std::string(spec.name) +
               "\": {\"value\": " + text + ", \"unit\": \"" + spec.unit +
               "\"}";
  }
  return std::string("{\"correct\": ") + (correct_ ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" +
         metrics + "}}";
}

double SetupTimes::total_cpu_s() const {
  return std::accumulate(cpu_s_.begin(), cpu_s_.end(), 0.0);
}

void SetupTimes::ReportTo(Report* report) const {
  Log("setup: median %.4f s wall, %.4f s CPU over %zu set-ups",
      Median(wall_s_), Median(cpu_s_), cpu_s_.size());
  report->EndToEnd("setup_s", Median(cpu_s_));
}

double TimeIt(const std::function<void()>& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return SecondsSince(start);
}

Cost Measure(const std::function<void()>& fn) {
  const auto cpu_now = [] {
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
  };
  const double cpu_start = cpu_now();
  const Clock::time_point start = Clock::now();
  fn();
  Cost cost;
  cost.wall_s = SecondsSince(start);
  cost.cpu_s = cpu_now() - cpu_start;
  return cost;
}

double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double ScoreAuc(const std::vector<float>& scores,
                const std::vector<const data::Example*>& examples,
                synth::Horizon horizon) {
  std::vector<int> labels;
  for (const data::Example* example : examples) {
    labels.push_back(example->Label(horizon) ? 1 : 0);
  }
  return eval::RocAuc(scores, labels);
}

double PeakRssMb() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void Log(const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::fputs("# ", stdout);
  std::vfprintf(stdout, format, args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
  va_end(args);
}

ProgramTrace::ProgramTrace() {
  trace::Clear();
  trace::SetEnabled(true);
}

ProgramTrace::~ProgramTrace() { trace::SetEnabled(false); }

double ProgramTrace::Dropped() {
  uint64_t dropped = 0;
  for (const trace::ThreadSnapshot& thread : trace::Snapshot()) {
    dropped += thread.dropped;
  }
  return static_cast<double>(dropped);
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace kddn::perfbench
