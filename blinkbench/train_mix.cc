// train_mix: one in-process caller runs a fixed, seeded sequence of
// Coordinator::Train jobs over the paper's model classes, closed loop.
//
// Every job re-runs the whole pipeline (Coordinator::Train shares nothing
// between calls), so the compute layers (core, estimators, optim, models,
// linalg) do all the work and the session, serve and net layers do none.
//
// A round is the same list of jobs every time. The run repeats whole rounds
// until it has measured for --seconds and has at least kMinJobs jobs, so
// every run attempts the same operations in the same proportions. The
// first round is a warm-up: its results are checked against the oracles,
// and every later job must reproduce its warm-up result bit for bit.
//
// Seeded inputs: the Lin-Gas and LR-HIGGS data and pipeline seeds derive
// from --seed, at requested accuracies whose actual accuracy keeps a wide
// margin over the request. Fixed inputs: the LR-Criteo, PPCA and ME jobs
// use the paper-bench data seeds (13, 15, 16, 17, 18) and pipeline seed 500
// whatever --seed is. On LR-Criteo and PPCA whether the guarantee holds
// depends on the data seed, and fixed inputs make each job's outcome the
// same in every run; ME's cost varies up to 2x with the data seed, which
// would make the run-to-run spread exceed the bounds (see README.md). The PPCA-HIGGS job
// at 99% misses its guarantee in every run (the PPCA estimator accepts m_0
// at every level) and is counted as a failed operation.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/coordinator.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "models/linear_regression.h"
#include "models/logistic_regression.h"
#include "models/max_entropy.h"
#include "models/ppca.h"
#include "models/trainer.h"
#include "oracles.h"

namespace blinkbench {

using namespace blinkml;

namespace {

constexpr int kMinJobs = 100;  // p90 needs ten samples beyond it

struct TrainData {
  std::string name;
  ModelClass cls;
  std::shared_ptr<ModelSpec> spec;
  Dataset data;
  BlinkConfig config;
  Vector full_theta;  // m_N: trained on the pool of config.seed's split
  Dataset::Index n0 = 0;
};

struct Job {
  int data = 0;
  double level = 0.9;  // requested accuracy 1 - epsilon, at delta 0.05
};

struct Reference {
  ApproxResult result;
  bool miss = false;  // actual accuracy below the request
};

bool SameResult(const ApproxResult& a, const ApproxResult& b) {
  return SameBits(a.model.theta, b.model.theta) && a.sample_size == b.sample_size &&
         a.used_initial_only == b.used_initial_only &&
         SameBits(a.initial_epsilon, b.initial_epsilon) &&
         SameBits(a.final_epsilon, b.final_epsilon);
}

Dataset Unsupervised(const Dataset& labelled) {
  return Dataset(Matrix(labelled.dense()), Vector(), Task::kUnsupervised);
}

std::vector<TrainData> MakeData(std::uint64_t seed) {
  std::vector<TrainData> out;
  auto add = [&](std::string name, ModelClass cls, std::shared_ptr<ModelSpec> spec,
                 Dataset data, std::uint64_t pipeline_seed) {
    TrainData d;
    d.name = std::move(name);
    d.cls = cls;
    d.spec = std::move(spec);
    d.data = std::move(data);
    // The paper-bench configuration (bench/bench_common.cc ConfigFor).
    d.config.initial_sample_size = 10000;
    d.config.holdout_size = 2000;
    d.config.stats_sample_size = d.spec->ParamDim(d.data) > 1200 ? 640 : 1024;
    d.config.accuracy_samples = 256;
    d.config.size_samples = 192;
    d.config.seed = pipeline_seed;
    // One lane: the jobs' fine-grained parallel regions wait for their
    // slowest lane, and on a shared 4-core machine identical rounds at 4
    // lanes varied from 1.5 to 2.6 s; at one lane they vary by 2%.
    d.config.runtime.num_threads = 1;
    out.push_back(std::move(d));
  };
  auto s = [seed](int stream) { return MixSeed(seed, stream); };
  add("Lin-Gas", ModelClass::kLin, std::make_shared<LinearRegressionSpec>(1e-3),
      MakeGasLike(100000, s(1), 57), s(101));
  add("LR-HIGGS", ModelClass::kLR, std::make_shared<LogisticRegressionSpec>(1e-3),
      MakeHiggsLike(100000, s(2), 28), s(102));
  add("ME-MNIST", ModelClass::kME, std::make_shared<MaxEntropySpec>(1e-3),
      MakeMnistLike(60000, 15, 144, 10), 500);
  add("ME-Yelp", ModelClass::kME, std::make_shared<MaxEntropySpec>(1e-3),
      MakeYelpLike(60000, 16, 500), 500);
  add("LR-Criteo", ModelClass::kLR, std::make_shared<LogisticRegressionSpec>(1e-3),
      MakeCriteoLike(100000, 13, 20000, 39), 500);
  add("PPCA-MNIST", ModelClass::kPPCA, std::make_shared<PpcaSpec>(10),
      Unsupervised(MakeMnistLike(40000, 17, 196, 10)), 500);
  add("PPCA-HIGGS", ModelClass::kPPCA, std::make_shared<PpcaSpec>(10),
      Unsupervised(MakeHiggsLike(160000, 18, 28)), 500);
  return out;
}

// Indices into MakeData's list.
enum { kGas, kHiggs, kMnist, kYelp, kCriteo, kPpcaMnist, kPpcaHiggs };

// Eleven jobs: an odd count keeps the median inside one job's latency
// group instead of between two groups' extremes.
const std::vector<Job>& Round() {
  static const auto* jobs = new std::vector<Job>{
      {kGas, 0.90},       {kGas, 0.99},        {kGas, 0.999},
      {kHiggs, 0.90},     {kMnist, 0.90},      {kYelp, 0.80},
      {kCriteo, 0.95},    {kCriteo, 0.99},     {kPpcaMnist, 0.99},
      {kPpcaHiggs, 0.90}, {kPpcaHiggs, 0.99},
  };
  return *jobs;
}

ApproximationContract ContractOf(const Job& job) {
  return {1.0 - job.level, 0.05};
}

/// Full models, checked by the oracles, and the initial sample size n_0.
bool PrepareReferences(std::vector<TrainData>* all, std::uint64_t seed,
                       Report* report) {
  TrainerOptions options;
  options.optimizer.max_iterations = 2000;
  const ModelTrainer trainer(options);
  for (TrainData& d : *all) {
    auto prefix = ComputeTrainingPrefix(d.data, d.config);
    if (!prefix.ok()) {
      report->Fail(d.name + " prefix: " + prefix.status().ToString());
      return false;
    }
    d.n0 = prefix->n0;
    const Dataset pool = d.data.TakeRows(*prefix->pool_rows);
    const Clock::time_point start = Clock::now();
    auto full = trainer.Train(*d.spec, pool);
    const double full_s = SecondsSince(start);
    if (!full.ok()) {
      report->Fail(d.name + " full model: " + full.status().ToString());
      return false;
    }
    const std::string why =
        VerifyFullModel(d.cls, *d.spec, pool, full->theta, MixSeed(seed, 900));
    report->Check(why.empty(), d.name + ": " + why);
    d.full_theta = std::move(full->theta);
    std::fprintf(stderr, "reference %s: full model on %lld rows in %.3f s\n",
                 d.name.c_str(), static_cast<long long>(pool.num_rows()), full_s);
  }
  return true;
}

/// The oracle checks of one result; returns whether the guarantee missed.
bool CheckResult(const TrainData& d, const Job& job, const ApproxResult& r,
                 Report* report) {
  const std::string tag = d.name + "@" + std::to_string(job.level);
  report->Check(r.sample_size <= r.full_size, tag + ": sample size exceeds N");
  report->Check(r.used_initial_only == (r.sample_size == d.n0),
                tag + ": used_initial_only disagrees with n == n_0");
  report->Check(r.contract_satisfied == (r.final_epsilon <= 1.0 - job.level),
                tag + ": contract_satisfied disagrees with the final epsilon");
  report->Check(r.holdout != nullptr, tag + ": no holdout");
  if (r.holdout == nullptr) return false;
  const double v = IndependentV(d.cls, r.model.theta, d.full_theta, *r.holdout);
  const double program_v = d.spec->Diff(r.model.theta, d.full_theta, *r.holdout);
  report->Check(std::fabs(v - program_v) <= VTolerance(d.cls, *r.holdout),
                tag + ": program Diff " + std::to_string(program_v) +
                    " != recomputed v " + std::to_string(v));
  return 1.0 - v < job.level;
}

struct StageTimes {
  double prefix = 0, initial = 0, stats = 0, accuracy = 0, size = 0, final = 0;
};

/// The pipeline stage by stage, as Coordinator::Train runs it, with a
/// benchmark timer and span around each public call.
Result<ApproxResult> RunStaged(const TrainData& d, const Job& job,
                               StageTimes* t) {
  auto timed = [](double* sink, auto&& call) {
    const Clock::time_point start = Clock::now();
    auto out = call();
    *sink += SecondsSince(start);
    return out;
  };
  const ApproximationContract contract = ContractOf(job);
  Result<TrainingPrefix> prefix = timed(&t->prefix, [&] {
    BenchSpan span("bench.core.prefix");
    return ComputeTrainingPrefix(d.data, d.config);
  });
  if (!prefix.ok()) return prefix.status();
  TrainingPipeline pipeline(*d.spec, d.data, contract, d.config,
                            std::make_shared<const TrainingPrefix>(std::move(*prefix)));
  Status st = timed(&t->initial, [&] {
    BenchSpan span("bench.core.initial_train");
    return pipeline.TrainInitial();
  });
  if (st.ok()) {
    st = timed(&t->stats, [&] {
      BenchSpan span("bench.core.statistics");
      return pipeline.ComputeInitialStatistics();
    });
  }
  if (st.ok()) {
    st = timed(&t->accuracy, [&] {
      BenchSpan span("bench.core.accuracy_estimation");
      return pipeline.EstimateInitialAccuracy();
    });
  }
  if (st.ok() && !pipeline.initial_meets_contract()) {
    st = timed(&t->size, [&] {
      BenchSpan span("bench.core.size_estimation");
      return pipeline.EstimateMinimumSampleSize();
    });
    if (st.ok()) {
      st = timed(&t->final, [&] {
        BenchSpan span("bench.core.final_train");
        return pipeline.TrainFinal();
      });
    }
  }
  if (!st.ok()) return st;
  return pipeline.Finish();
}

struct Phase {
  std::vector<double> latencies;
  std::vector<double> round_s;
  // Traced phase only.
  std::map<std::string, double> layer;
  double max_gap_ms = 0.0;
  std::vector<std::pair<double, int>> job_starts_us;  // (start, data index)
};

/// Runs whole rounds until `seconds` have passed and at least `min_jobs`
/// ran; every result must equal its warm-up reference bit for bit.
Phase RunRounds(const std::vector<TrainData>& all,
                const std::vector<Reference>& refs, double seconds, int min_jobs,
                bool staged, Report* report) {
  const std::vector<Job>& round = Round();
  Phase phase;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < seconds ||
         static_cast<int>(phase.latencies.size()) < min_jobs) {
    const Clock::time_point round_start = Clock::now();
    for (std::size_t j = 0; j < round.size(); ++j) {
      const Job& job = round[j];
      const TrainData& d = all[static_cast<std::size_t>(job.data)];
      StageTimes stages;
      const Clock::time_point t0 = Clock::now();
      Result<ApproxResult> r = [&]() -> Result<ApproxResult> {
        if (!staged) return Coordinator(d.config).Train(*d.spec, d.data, ContractOf(job));
        phase.job_starts_us.push_back({obs::Tracer::Global().NowUs(), job.data});
        BenchSpan span("bench.op.train_job");
        return RunStaged(d, job, &stages);
      }();
      phase.latencies.push_back(SecondsSince(t0));
      ++report->attempted;
      if (!r.ok()) {
        report->Fail(d.name + " train: " + r.status().ToString());
        ++report->failed;
        continue;
      }
      if (!SameResult(*r, refs[j].result)) {
        report->Fail(d.name + "@" + std::to_string(job.level) +
                     ": result differs from the warm-up run of the same job");
      }
      if (refs[j].miss) ++report->failed;
      if (!staged) continue;
      // Two clocks over the same calls: the benchmark's stage timers and
      // the program's ApproxResult::timings. They must agree where a stage
      // call and a program phase cover the same work. TrainFinal also
      // re-estimates (the program's statistics and accuracy phases) and
      // materializes the final sample, which no program phase times; that
      // remainder is reported as core.final_untimed_s.
      const PhaseTimings& p = r->timings;
      std::vector<std::pair<double, double>> pairs = {
          {stages.initial, p.initial_train}, {stages.size, p.size_estimation}};
      double untimed = 0.0;
      if (r->used_initial_only) {
        pairs.push_back({stages.stats, p.statistics});
        pairs.push_back({stages.accuracy, p.accuracy_estimation});
      } else {
        untimed = stages.final - (p.final_train + (p.statistics - stages.stats) +
                                  (p.accuracy_estimation - stages.accuracy));
      }
      for (const auto& [bench_s, program_s] : pairs) {
        const double gap = std::fabs(bench_s - program_s);
        phase.max_gap_ms = std::max(phase.max_gap_ms, gap * 1e3);
        report->Check(gap <= 0.002 + 0.05 * bench_s,
                      d.name + ": a stage timer disagrees with ApproxResult::timings");
      }
      report->Check(untimed >= -0.002 - 0.05 * stages.final,
                    d.name + ": TrainFinal took less than the phases inside it");
      auto& l = phase.layer;
      l["core.prefix_s"] += stages.prefix;
      l["core.initial_train_s"] += stages.initial;
      l["core.statistics_s"] += stages.stats;
      l["core.accuracy_estimation_s"] += stages.accuracy;
      l["core.size_estimation_s"] += stages.size;
      l["core.final_train_s"] += stages.final;
      l["core.final_untimed_s"] += untimed;
      l["core.jobs"] += 1;
      l["core.size_evaluations"] += r->size_estimate.evaluations;
      l["core.initial_only_jobs"] += r->used_initial_only ? 1 : 0;
      l[std::string("core.guarantee_misses.") + ModelClassName(d.cls)] +=
          refs[j].miss ? 1 : 0;
      l["optim.initial_iterations"] += r->initial_iterations;
      l["optim.final_iterations"] += r->final_iterations;
      l["models.rows_trained"] +=
          static_cast<double>(d.n0 + (r->used_initial_only ? 0 : r->sample_size));
    }
    phase.round_s.push_back(SecondsSince(round_start));
  }
  return phase;
}

}  // namespace

int RunTrainMix(const Options& options, Report* report) {
  std::vector<TrainData> all = MakeData(options.seed);
  if (!PrepareReferences(&all, options.seed, report)) return 1;

  // Warm-up round: the reference results every later job must reproduce.
  const std::vector<Job>& round = Round();
  std::vector<Reference> refs(round.size());
  for (std::size_t j = 0; j < round.size(); ++j) {
    const TrainData& d = all[static_cast<std::size_t>(round[j].data)];
    const Clock::time_point start = Clock::now();
    auto r = Coordinator(d.config).Train(*d.spec, d.data, ContractOf(round[j]));
    const double job_s = SecondsSince(start);
    if (!r.ok()) {
      report->Fail(d.name + " warm-up: " + r.status().ToString());
      return 1;
    }
    refs[j].miss = CheckResult(d, round[j], *r, report);
    const PhaseTimings& p = r->timings;
    std::fprintf(stderr,
                 "job %s@%g: %.3f s, n=%lld of %lld, %s, actual accuracy %.4f%s; "
                 "phases initial %.3f stats %.3f accuracy %.3f size %.3f final %.3f\n",
                 d.name.c_str(), round[j].level, job_s,
                 static_cast<long long>(r->sample_size),
                 static_cast<long long>(r->full_size),
                 r->used_initial_only ? "initial-only" : "final-train",
                 1.0 - IndependentV(d.cls, r->model.theta, d.full_theta, *r->holdout),
                 refs[j].miss ? " MISS" : "", p.initial_train, p.statistics,
                 p.accuracy_estimation, p.size_estimation, p.final_train);
    refs[j].result = std::move(*r);
  }
  const double setup_s = SecondsSince(options.process_start);

  if (!options.trace) {
    const Phase timed =
        RunRounds(all, refs, options.seconds, kMinJobs, false, report);
    report->Metric("setup_s", setup_s, "s");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Metric("p50_ms", Median(timed.latencies) * 1e3, "ms");
    report->Metric("tail_ms", Percentile(timed.latencies, 0.90) * 1e3, "ms");
    // A round's duration is the sum of its identical jobs; the median round
    // is robust to a round that another tenant of the machine slowed.
    report->Metric("ops_per_s",
                   static_cast<double>(Round().size()) / Median(timed.round_s),
                   "1/s");
    return 0;
  }

  // Traced run: half untraced, half traced, same rounds.
  const Phase plain =
      RunRounds(all, refs, options.seconds / 2, 0, false, report);
  StartTracing(options);
  Phase traced = RunRounds(all, refs, options.seconds / 2, 0, true, report);
  const auto events = StopTracing(report);
  const auto fold = FoldSpans(events);
  std::map<std::string, double>& l = traced.layer;
  const double jobs = l["core.jobs"];
  for (const char* name :
       {"core.prefix_s", "core.initial_train_s", "core.statistics_s",
        "core.accuracy_estimation_s", "core.size_estimation_s",
        "core.final_train_s", "core.final_untimed_s"}) {
    l[name] /= jobs;
  }
  auto inclusive = [&](const char* name) {
    const auto it = fold.find(name);
    return it == fold.end() ? 0.0 : it->second.inclusive_s;
  };
  const auto op = fold.find("bench.op.train_job");
  l["core.unattributed_s"] = op == fold.end() ? 0.0 : op->second.self_s / jobs;
  l["core.mc_accuracy_draws_s"] = inclusive("mc:accuracy_draws") / jobs;
  l["core.mc_size_draws_s"] = inclusive("mc:size_draws") / jobs;
  l["core.stage_timer_gap_ms"] = traced.max_gap_ms;
  l["linalg.gram_s"] = (inclusive("kernel:GramRows") + inclusive("kernel:GramCols")) / jobs;
  l["linalg.sparse_gram_s"] = inclusive("kernel:SparseGram") / jobs;
  // Dense Gram flops from the kernel spans' row counts and the job's shapes:
  // GramRows(r x c) costs r(r+1)c, GramCols(r x c) costs c(c+1)r. The dense
  // rescale path grams the features (c = d) for Lin/LR; other classes gram
  // per-example gradients (c = parameter dimension).
  double flop = 0.0;
  for (const auto& e : events) {
    const std::string name = e.name;
    if (name != "kernel:GramRows" && name != "kernel:GramCols") continue;
    auto it = std::upper_bound(
        traced.job_starts_us.begin(), traced.job_starts_us.end(),
        std::make_pair(e.ts_us, 1 << 30));
    if (it == traced.job_starts_us.begin()) continue;
    const TrainData& d = all[static_cast<std::size_t>(std::prev(it)->second)];
    const double r = static_cast<double>(e.arg_value);
    const double p = static_cast<double>(d.spec->ParamDim(d.data));
    if (name == "kernel:GramCols") {
      flop += p * (p + 1) * r;
    } else {
      const double c = d.spec->has_gradient_coeffs()
                           ? static_cast<double>(d.data.dim())
                           : p;
      flop += r * (r + 1) * c;
    }
  }
  l["linalg.gram_flop"] = flop / jobs;
  for (const auto& [layer, self_s] : SelfTimeByLayer(fold)) {
    if (layer != "other") l["self." + layer + "_s"] = self_s / jobs;
  }
  const double untraced_ms = Median(plain.latencies) * 1e3;
  const double traced_ms = Median(traced.latencies) * 1e3;
  l["trace.untraced_p50_ms"] = untraced_ms;
  l["trace.traced_p50_ms"] = traced_ms;
  l["trace.overhead_ms"] = traced_ms - untraced_ms;
  EmitPerLayer(l, report);
  return 0;
}

}  // namespace blinkbench
