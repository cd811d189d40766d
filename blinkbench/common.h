// Shared pieces of the repository benchmark: run options, the result
// report, order statistics, the benchmark's own trace spans and the fold
// that turns spans into per-layer self times.
//
// The benchmark calls only the program's public headers. Its spans go into
// the program's process-wide tracer (obs/trace.h) next to the spans the
// program emits itself, so one fold sees both and one Chrome trace file
// holds both.

#ifndef BLINKBENCH_COMMON_H_
#define BLINKBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "linalg/vector.h"
#include "obs/trace.h"

namespace blinkbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// The serving daemon binary serve_routed spawns as its workers.
  std::string worker_binary;
  /// Directory (relative to the working directory) for sockets and the
  /// trace file; it must exist.
  std::string out_dir;
  /// Taken at the top of main: set-up time is measured from here.
  Clock::time_point process_start;
};

/// What one run prints as its last line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check (printed to stderr at once).
  void Fail(const std::string& what);
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  bool correct() const { return failures_ == 0; }
  /// The single-line JSON result, printed as the last line of stdout.
  std::string ToJson() const;

  long long attempted = 0;
  long long failed = 0;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  int failures_ = 0;
};

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
/// Median with the even-count midpoint.
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Peak resident set (VmHWM) of `pid` in MiB, or of this process when pid
/// is 0. Returns 0 when the status file cannot be read.
double PeakRssMb(int pid = 0);

/// Bitwise equality: the determinism checks compare bits, not values.
bool SameBits(double a, double b);
bool SameBits(const blinkml::Vector& a, const blinkml::Vector& b);

/// SplitMix64: derives independent sub-seeds from the run seed.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream);

/// A span recorded from the benchmark's side of a public call. Records
/// into obs::Tracer::Global() when the tracer is armed; otherwise costs
/// one atomic load. `name` must be a static string.
class BenchSpan {
 public:
  explicit BenchSpan(const char* name);
  ~BenchSpan();
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  const char* name_;
  double start_us_;
};

/// Layer of a span name: the benchmark's own spans are "bench.<layer>..."
/// and map to that layer; the program's spans map by prefix (kernel:* ->
/// linalg, mc:* -> estimator, pipeline phases -> core, prefix:compute ->
/// session, manager:* -> serve, shard_forward -> shard). Unknown names map
/// to "other".
std::string LayerOf(const std::string& span_name);

/// Inclusive and self time of every span name, folded per thread: a span's
/// self time is its duration minus the part its nested children (spans on
/// the same thread inside its interval) cover.
struct SpanTotals {
  double inclusive_s = 0.0;
  double self_s = 0.0;
  long long count = 0;
};
std::map<std::string, SpanTotals> FoldSpans(
    const std::vector<blinkml::obs::TraceEvent>& events);

/// Self time summed per layer (LayerOf) from a fold.
std::map<std::string, double> SelfTimeByLayer(
    const std::map<std::string, SpanTotals>& fold);

/// Every per-layer metric name the traced run reports, with its unit. A
/// workload that bypasses a layer reports 0 for its metrics.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetricNames();

/// Fills each per-layer metric from `values` (absent names read 0) and
/// emits them in the fixed order of PerLayerMetricNames.
void EmitPerLayer(const std::map<std::string, double>& values, Report* report);

/// Arms the tracer writing to <out_dir>/trace_<workload>.json.
void StartTracing(const Options& options);
/// Disarms the tracer, writes the trace file and returns the events.
std::vector<blinkml::obs::TraceEvent> StopTracing(Report* report);

int RunTrainMix(const Options& options, Report* report);
int RunSearchGrid(const Options& options, Report* report);
int RunServeRouted(const Options& options, Report* report);

}  // namespace blinkbench

#endif  // BLINKBENCH_COMMON_H_
