#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

namespace blinkbench {

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) {
  ++failures_;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameBits(const blinkml::Vector& a, const blinkml::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(double)) == 0;
}

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  // Keep seeds positive and away from 0, which some APIs read as "unset".
  return (z >> 1) | 1;
}

BenchSpan::BenchSpan(const char* name)
    : name_(name),
      start_us_(blinkml::obs::Tracer::Global().enabled()
                    ? blinkml::obs::Tracer::Global().NowUs()
                    : -1.0) {}

BenchSpan::~BenchSpan() {
  if (start_us_ < 0.0) return;
  auto& tracer = blinkml::obs::Tracer::Global();
  blinkml::obs::TraceEvent event;
  event.name = name_;
  event.cat = "bench";
  event.ts_us = start_us_;
  event.dur_us = tracer.NowUs() - start_us_;
  tracer.Record(std::move(event));
}

std::string LayerOf(const std::string& name) {
  auto starts = [&](const char* prefix) { return name.rfind(prefix, 0) == 0; };
  if (starts("bench.")) {
    // bench.<layer>.<call>; the root span of an operation is bench.op.*
    // and its self time is what no layer's span covers.
    const std::size_t dot = name.find('.', 6);
    const std::string layer =
        name.substr(6, dot == std::string::npos ? std::string::npos : dot - 6);
    return layer == "op" ? "bench" : layer;
  }
  if (starts("kernel:")) return "linalg";
  if (starts("mc:")) return "estimator";
  if (name == "initial_train" || name == "statistics" ||
      name == "accuracy_estimation" || name == "size_estimation" ||
      name == "final_train") {
    return "core";
  }
  if (starts("prefix:")) return "session";
  if (starts("manager:")) return "serve";
  if (name == "shard_forward") return "shard";
  return "other";
}

std::map<std::string, SpanTotals> FoldSpans(
    const std::vector<blinkml::obs::TraceEvent>& events) {
  std::map<int, std::vector<const blinkml::obs::TraceEvent*>> by_thread;
  for (const auto& e : events) by_thread[e.tid].push_back(&e);
  std::map<std::string, SpanTotals> out;
  for (auto& [tid, list] : by_thread) {
    (void)tid;
    // Parents first: earlier start, and the longer span on a tie.
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
      return a->dur_us > b->dur_us;
    });
    struct Open {
      const blinkml::obs::TraceEvent* event;
      double end_us;
      double child_us;
    };
    std::vector<Open> stack;
    auto close = [&](const Open& open) {
      SpanTotals& t = out[open.event->name];
      t.inclusive_s += open.event->dur_us * 1e-6;
      t.self_s += std::max(0.0, open.event->dur_us - open.child_us) * 1e-6;
      ++t.count;
    };
    for (const auto* e : list) {
      const double end = e->ts_us + e->dur_us;
      while (!stack.empty() && stack.back().end_us <= e->ts_us) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) {
        // Clock reads on either side of a call can straddle the parent's
        // end by a few ns; charge the parent only the overlap.
        stack.back().child_us +=
            std::max(0.0, std::min(end, stack.back().end_us) - e->ts_us);
      }
      stack.push_back({e, end, 0.0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return out;
}

std::map<std::string, double> SelfTimeByLayer(
    const std::map<std::string, SpanTotals>& fold) {
  std::map<std::string, double> out;
  for (const auto& [name, totals] : fold) out[LayerOf(name)] += totals.self_s;
  return out;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetricNames() {
  static const auto* names = new std::vector<std::pair<std::string, std::string>>{
      {"core.prefix_s", "s"},
      {"core.initial_train_s", "s"},
      {"core.statistics_s", "s"},
      {"core.accuracy_estimation_s", "s"},
      {"core.size_estimation_s", "s"},
      {"core.final_train_s", "s"},
      {"core.final_untimed_s", "s"},
      {"core.unattributed_s", "s"},
      {"core.mc_accuracy_draws_s", "s"},
      {"core.mc_size_draws_s", "s"},
      {"core.stage_timer_gap_ms", "ms"},
      {"core.jobs", "count"},
      {"core.size_evaluations", "count"},
      {"core.initial_only_jobs", "count"},
      {"core.guarantee_misses.Lin", "count"},
      {"core.guarantee_misses.LR", "count"},
      {"core.guarantee_misses.ME", "count"},
      {"core.guarantee_misses.PPCA", "count"},
      {"optim.initial_iterations", "count"},
      {"optim.final_iterations", "count"},
      {"models.rows_trained", "rows"},
      {"linalg.gram_s", "s"},
      {"linalg.sparse_gram_s", "s"},
      {"linalg.gram_flop", "flop"},
      {"session.prefix_computes", "count"},
      {"session.batched_score_groups", "count"},
      {"session.sample_cache_hit_ratio", "ratio"},
      {"session.sample_cache_lookups", "count"},
      {"session.gram_cache_hit_ratio", "ratio"},
      {"session.gram_cache_lookups", "count"},
      {"serve.search_job_s", "s"},
      {"serve.handoff_s", "s"},
      {"serve.routed_train_p50_ms", "ms"},
      {"serve.routed_search_p50_ms", "ms"},
      {"serve.predict_compute_us", "us"},
      {"net.predict_encode_us", "us"},
      {"net.predict_decode_us", "us"},
      {"net.predict_frame_bytes", "bytes"},
      {"net.search_response_bytes", "bytes"},
      {"net.direct_predict_p50_us", "us"},
      {"shard.hop_us", "us"},
      {"shard.forwarded", "count"},
      {"shard.unavailable", "count"},
      {"client.retries", "count"},
      {"self.bench_s", "s"},
      {"self.core_s", "s"},
      {"self.estimator_s", "s"},
      {"self.linalg_s", "s"},
      {"self.session_s", "s"},
      {"self.serve_s", "s"},
      {"self.shard_s", "s"},
      {"trace.untraced_p50_ms", "ms"},
      {"trace.traced_p50_ms", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  return *names;
}

void EmitPerLayer(const std::map<std::string, double>& values,
                  Report* report) {
  for (const auto& [name, unit] : PerLayerMetricNames()) {
    const auto it = values.find(name);
    report->Metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    (void)value;
    bool known = false;
    for (const auto& entry : PerLayerMetricNames()) {
      known = known || entry.first == name;
    }
    if (!known) report->Fail("per-layer metric not declared: " + name);
  }
}

void StartTracing(const Options& options) {
  blinkml::obs::Tracer::Global().Start(options.out_dir + "/trace_" +
                                       options.workload + ".json");
}

std::vector<blinkml::obs::TraceEvent> StopTracing(Report* report) {
  auto& tracer = blinkml::obs::Tracer::Global();
  std::vector<blinkml::obs::TraceEvent> events = tracer.Snapshot();
  const blinkml::Status st = tracer.Stop();
  if (!st.ok()) report->Fail("trace dump: " + st.ToString());
  return events;
}

}  // namespace blinkbench
