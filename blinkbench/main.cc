// The repository benchmark's entry point (run through run.py, which builds
// it). Usage:
//
//   blinkbench --workload train_mix|search_grid|serve_routed --seed N
//              --seconds S --trace 0|1 --worker PATH --out DIR
//
// Prints diagnostics to stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// Exits 0 when the run completed, whatever it measured; exits non-zero,
// printing no result, when set-up failed.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  blinkbench::Options options;
  options.process_start = blinkbench::Clock::now();
  auto usage = [&](const char* why) {
    std::fprintf(stderr,
                 "%s\nusage: %s --workload train_mix|search_grid|serve_routed "
                 "--seed N --seconds S --trace 0|1 --worker PATH --out DIR\n",
                 why, argv[0]);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--worker") {
      options.worker_binary = value;
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.out_dir.empty()) return usage("--out is required");

  blinkbench::Report report;
  int rc = 0;
  if (options.workload == "train_mix") {
    rc = blinkbench::RunTrainMix(options, &report);
  } else if (options.workload == "search_grid") {
    rc = blinkbench::RunSearchGrid(options, &report);
  } else if (options.workload == "serve_routed") {
    if (options.worker_binary.empty()) return usage("--worker is required");
    rc = blinkbench::RunServeRouted(options, &report);
  } else {
    return usage("unknown workload");
  }
  if (rc != 0) {
    std::fprintf(stderr, "%s: set-up failed\n", options.workload.c_str());
    return rc;
  }
  if (report.attempted < 1) report.Fail("no operation was attempted");
  std::fflush(stderr);
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
