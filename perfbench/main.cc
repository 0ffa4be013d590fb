// kddn_perfbench — the repository benchmark (see README.md in this
// directory). Runs one workload and prints, as its last stdout line, the
// result object with every end-to-end metric (--trace=0) or every per-layer
// metric (--trace=1):
//
//   kddn_perfbench --workload=serve_http --seed=1 --seconds=10 --trace=0
//
// Workloads: serve_http, score_bulk, train. perfbench/run.py builds this
// binary and is the usual entry point.
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <string>

#include "common/flags.h"
#include "common/thread_pool.h"
#include "report.h"
#include "tensor/gemm.h"

#ifndef KDDN_PERFBENCH_BUILD_TYPE
#define KDDN_PERFBENCH_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  using namespace kddn::perfbench;
  try {
    const kddn::Flags flags = kddn::Flags::Parse(argc, argv);
    RunConfig config;
    config.workload = flags.GetString("workload", "");
    config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
    config.seconds = flags.GetDouble("seconds", 10.0);
    config.trace = flags.GetInt("trace", 0) != 0;
    config.nproc = static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
    kddn::SetGlobalThreadPoolSize(config.nproc);

    // The host and configuration every result is measured on.
    std::printf(
        "{\"host\": {\"nproc\": %d, \"gemm_isa\": \"%s\", \"pool_threads\": "
        "%d, \"build_type\": \"%s\"}, \"config\": {\"workload\": \"%s\", "
        "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}}\n",
        config.nproc, kddn::detail::GemmIsaName(),
        kddn::GlobalThreadPoolSize(), KDDN_PERFBENCH_BUILD_TYPE,
        config.workload.c_str(), static_cast<unsigned long long>(config.seed),
        config.seconds, config.trace ? 1 : 0);

    Report report(config.trace);
    if (config.workload == "serve_http") {
      RunServeHttp(config, &report);
    } else if (config.workload == "score_bulk") {
      RunScoreBulk(config, &report);
    } else if (config.workload == "train") {
      RunTrain(config, &report);
    } else {
      std::fprintf(stderr, "unknown --workload '%s'\n",
                   config.workload.c_str());
      return 2;
    }
    report.EndToEnd("peak_rss_mb", PeakRssMb());
    std::printf("%s\n", report.ToJson().c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "kddn_perfbench: %s\n", error.what());
    return 1;
  }
}
