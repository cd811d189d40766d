// Compute-kernel benchmark: the register-tiled / cache-blocked kernels
// (linalg/kernels.h) against the naive scalar loops they replaced (the
// reference library, tests/reference/), on the shapes the BlinkML hot
// paths actually run:
//   * dense Gram over a stats-sample-sized gradient matrix;
//   * sparse Gram over heavy hashed-feature rows;
//   * CSR matvec / transposed matvec (the sampler-draw kernels);
//   * end to end: an 8-candidate sparse hyperparameter search, broken down
//     by pipeline phase and Monte-Carlo draw time.
//
//   $ ./build/bench_kernels [--json[=path]] [--threads=N]
//
// Honors BLINKML_SCALE (matvec dataset size, search size) and
// BLINKML_REPEATS. Exit status reflects the correctness checks — kernel
// results within 1e-12 (relative) of the oracle and bitwise identical
// across 1/2/8 threads — not the speedup numbers.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/accuracy_estimator.h"
#include "core/sample_size_estimator.h"
#include "core/statistics.h"
#include "models/trainer.h"
#include "data/generators.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "models/logistic_regression.h"
#include "obs/metrics.h"
#include "random/rng.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "session/hyperparam_search.h"
#include "session/training_session.h"
#include "tests/reference/reference.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace blinkml;

// Best-of-repeats wall time of fn() (first call untimed warm-up).
double TimeIt(int repeats, const std::function<void()>& fn) {
  fn();
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.Seconds());
  }
  return best;
}

RuntimeOptions PoolOptions(ThreadPool* pool, int threads) {
  RuntimeOptions options;
  options.pool = pool;
  options.num_threads = threads;
  return options;
}

struct MicroResult {
  std::string name;
  double naive_seconds = 0.0;
  double blocked_seconds = 0.0;
  double rel_diff = 0.0;       // blocked vs oracle
  bool thread_invariant = false;  // blocked result bitwise at 1/2/8 threads
  double speedup() const { return naive_seconds / blocked_seconds; }
};

// Benchmarks one kernel: times it and its reference loop under `pool` at
// `threads` lanes, checks the kernel's result against the reference, and
// sweeps the kernel over 1/2/8 lanes for bitwise invariance. Result is any
// type with MaxAbsDiff + RelDiff.
template <typename ResultT>
MicroResult RunMicro(const std::string& name, ThreadPool* pool, int threads,
                     int repeats, const std::function<ResultT()>& kernel,
                     const std::function<ResultT()>& oracle_fn) {
  MicroResult out;
  out.name = name;
  ResultT oracle, blocked;
  {
    RuntimeScope scope(PoolOptions(pool, threads));
    oracle = oracle_fn();
    out.naive_seconds = TimeIt(repeats, [&] { oracle_fn(); });
    blocked = kernel();
    out.blocked_seconds = TimeIt(repeats, [&] { kernel(); });
  }
  out.rel_diff = MaxRelDiff(blocked, oracle);
  out.thread_invariant = true;
  for (const int t : {1, 2, 8}) {
    RuntimeScope scope(PoolOptions(pool, t));
    out.thread_invariant =
        out.thread_invariant && MaxAbsDiff(kernel(), blocked) == 0.0;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace blinkml::bench;

  const BenchFlags flags = ParseBenchFlags(argc, argv, "BENCH_kernels.json");
  const double scale = ScaleFromEnv();
  const int repeats = RepeatsFromEnv(3);
  const int threads = flags.threads > 0 ? flags.threads : 8;
  ThreadPool pool(threads);

  PrintHeader("Compute kernels: blocked/tiled vs naive reference loops");
  std::printf("threads=%d (local pool; %d hardware), repeats=%d, scale=%g\n",
              threads, ThreadPool::DefaultParallelism(), repeats, scale);

  // --- Workloads on the hot-path shapes.
  Rng rng(7);
  // Dense Gram: a stats-sample-sized gradient matrix (n_s x d).
  const Matrix::Index gram_n = 768, gram_d = 512;
  Matrix dense(gram_n, gram_d);
  for (Matrix::Index i = 0; i < dense.size(); ++i) {
    dense.data()[i] = rng.Normal(0.0, 1.0);
  }
  // Sparse Gram: heavy bag-of-words-like rows (the tiled path's regime).
  const Dataset sparse_gram_data = MakeSyntheticLogistic(
      /*rows=*/768, /*dim=*/12'000, /*seed=*/29, /*sparsity=*/0.025,
      /*noise=*/0.1);
  const SparseMatrix& q = sparse_gram_data.sparse();
  // CSR matvecs: the sampler-draw shape (every Monte-Carlo draw applies
  // Q^T with Q a heavy-row gradient matrix, hundreds of times per
  // estimate — so Q is cache-resident and the naive serial loops are
  // FP-latency-bound, exactly what the unrolled chains break).
  const auto mv_rows = static_cast<Dataset::Index>(3'000 * scale);
  const Dataset mv_data = MakeSyntheticLogistic(
      mv_rows, /*dim=*/12'000, /*seed=*/21, /*sparsity=*/0.05, /*noise=*/0.1);
  const SparseMatrix& x = mv_data.sparse();
  Vector xv(x.cols());
  for (Vector::Index i = 0; i < xv.size(); ++i) xv[i] = rng.Normal(0.0, 1.0);
  Vector xr(x.rows());
  for (Vector::Index i = 0; i < xr.size(); ++i) xr[i] = rng.Normal(0.0, 1.0);
  // Multi-vector matvec operands: 8 candidate thetas (the batched-scoring
  // margin pass) and an 8-column V (the covariance factor / draw batch).
  std::vector<Vector> theta_store;
  for (int t = 0; t < 8; ++t) {
    Vector theta(x.cols());
    for (Vector::Index i = 0; i < theta.size(); ++i) {
      theta[i] = rng.Normal(0.0, 1.0);
    }
    theta_store.push_back(std::move(theta));
  }
  std::vector<const Vector*> thetas;
  for (const Vector& theta : theta_store) thetas.push_back(&theta);
  Matrix vmat(x.rows(), 8);
  for (Matrix::Index i = 0; i < vmat.size(); ++i) {
    vmat.data()[i] = rng.Normal(0.0, 1.0);
  }
  std::vector<MicroResult> micros;
  micros.push_back(RunMicro<Matrix>(
      StrFormat("dense_gram %lldx%lld", static_cast<long long>(gram_n),
                static_cast<long long>(gram_d)),
      &pool, threads, repeats, [&] { return GramRows(dense); },
      [&] { return reference::GramRows(dense); }));
  micros.push_back(RunMicro<Matrix>(
      StrFormat("sparse_gram %lld rows, %lld nnz/row",
                static_cast<long long>(q.rows()),
                static_cast<long long>(q.nnz() / q.rows())),
      &pool, threads, repeats, [&] { return SparseGradientGram(q); },
      [&] { return reference::SparseGradientGram(q); }));
  micros.push_back(RunMicro<Matrix>(
      StrFormat("sparse_matvec x8 %s rows", WithThousands(x.rows()).c_str()),
      &pool, threads, repeats, [&] { return BatchMargins(mv_data, thetas); },
      [&] { return reference::BatchMargins(mv_data, thetas); }));
  // The multi-column transposed apply behind ParamSampler::DenseCovariance
  // against one serial scatter per column.
  micros.push_back(RunMicro<Matrix>(
      StrFormat("sparse_matvec_T x8 %s rows", WithThousands(x.rows()).c_str()),
      &pool, threads, repeats,
      [&] { return kernels::ApplyTransposedMulti(x, vmat); },
      [&] { return reference::ApplyTransposedColumns(x, vmat); }));
  // Single-vector CSR applies: a gather dot is load-port-bound, so their
  // kernel win is lane scaling — parity is expected when the pool has one
  // hardware core under it (the multi-vector rows above carry the
  // single-core win via index-load amortization).
  micros.push_back(RunMicro<Vector>(
      StrFormat("sparse_apply x1 %s rows", WithThousands(x.rows()).c_str()),
      &pool, threads, repeats, [&] { return x.Apply(xv); },
      [&] { return reference::Apply(x, xv); }));
  micros.push_back(RunMicro<Vector>(
      StrFormat("sparse_apply_T x1 %s rows", WithThousands(x.rows()).c_str()),
      &pool, threads, repeats, [&] { return x.ApplyTransposed(xr); },
      [&] { return reference::ApplyTransposed(x, xr); }));

  bool checks_pass = true;
  std::printf("\n%-34s| %-10s| %-10s| %-8s| %-10s| %s\n", "kernel", "naive",
              "blocked", "speedup", "rel diff", "1/2/8 bitwise");
  std::vector<JsonObject> micro_json;
  for (const MicroResult& m : micros) {
    const bool ok = m.rel_diff <= 1e-12 && m.thread_invariant;
    checks_pass = checks_pass && ok;
    std::printf("%-34s| %-10s| %-10s| %-8.2f| %-10.2e| %s\n", m.name.c_str(),
                HumanSeconds(m.naive_seconds).c_str(),
                HumanSeconds(m.blocked_seconds).c_str(), m.speedup(),
                m.rel_diff, m.thread_invariant ? "yes" : "NO");
    micro_json.push_back(JsonObject()
                             .Str("kernel", m.name)
                             .Number("naive_seconds", m.naive_seconds)
                             .Number("blocked_seconds", m.blocked_seconds)
                             .Number("speedup", m.speedup())
                             .Number("rel_diff_vs_oracle", m.rel_diff)
                             .Bool("thread_invariant", m.thread_invariant));
  }

  // --- Blocked-kernel thread scaling (dense Gram; fixed schedule, so the
  // results are bitwise identical per the sweep above).
  std::printf("\n%-10s| %s\n", "threads", "dense_gram blocked");
  std::vector<JsonObject> thread_json;
  for (const int t : {1, 2, 8}) {
    RuntimeScope scope(PoolOptions(&pool, t));
    const double seconds = TimeIt(repeats, [&] { GramRows(dense); });
    std::printf("%-10d| %s\n", t, HumanSeconds(seconds).c_str());
    thread_json.push_back(
        JsonObject().Int("threads", t).Number("dense_gram_seconds", seconds));
  }

  // --- End to end: an 8-candidate sparse search, broken down by phase.
  const auto search_rows = static_cast<Dataset::Index>(9'000 * scale);
  const auto search_data = std::make_shared<const Dataset>(
      MakeSyntheticLogistic(search_rows, /*dim=*/10'000, /*seed=*/31,
                            /*sparsity=*/0.05, /*noise=*/0.1));
  const std::vector<Candidate> candidates =
      HyperparamSearch::LogGrid(1e-4, 1e-1, 8);
  const auto factory = [](const Candidate& c) {
    return std::make_shared<LogisticRegressionSpec>(c.l2);
  };
  const ApproximationContract contract{0.08, 0.05};
  // Estimator-draw seconds come from the global registry's
  // estimator_seconds counters, read as before/after deltas since the
  // registry is process-wide (the obs layer's wall-clock accounting;
  // reads never perturb results).
  const auto estimator_seconds = [](const char* part) {
    return obs::Registry::Global()
        .FloatCounter("estimator_seconds", {{"part", part}})
        ->value();
  };
  BlinkConfig config;
  config.initial_sample_size = 6000;
  config.holdout_size = 1500;
  config.stats_sample_size = 256;
  config.accuracy_samples = 192;
  config.size_samples = 128;
  config.seed = 11;
  config.runtime.num_threads = flags.threads;
  TrainingSession session(search_data, config);
  SearchOptions search_options;
  search_options.contract = contract;
  const double acc0 = estimator_seconds("accuracy_draws");
  const double size0 = estimator_seconds("size_draws");
  const double eval0 = estimator_seconds("size_search_evals");
  WallTimer search_timer;
  const SearchOutcome outcome =
      HyperparamSearch(&session, search_options).Run(factory, candidates);
  const double search_seconds = search_timer.Seconds();
  const double search_draws = (estimator_seconds("accuracy_draws") - acc0) +
                              (estimator_seconds("size_draws") - size0);
  const double size_eval_seconds =
      estimator_seconds("size_search_evals") - eval0;
  const PhaseTimings phases = session.stats().run_timings;
  for (const CandidateResult& c : outcome.candidates) {
    if (!c.status.ok()) {
      std::fprintf(stderr, "search candidate failed: %s\n",
                   c.status.ToString().c_str());
      return 1;
    }
  }
  std::printf("\n8-candidate search: %s\n",
              HumanSeconds(search_seconds).c_str());

  // Where the end-to-end time lives: per-pipeline-phase seconds plus the
  // estimator Monte-Carlo draw subtotals nested inside the estimation
  // phases.
  const std::vector<std::pair<const char*, double>> phase_rows = {
      {"initial_train", phases.initial_train},
      {"statistics", phases.statistics},
      {"accuracy_estimation", phases.accuracy_estimation},
      {"size_estimation", phases.size_estimation},
      {"final_train", phases.final_train},
  };
  std::printf("\n%-22s| %-10s| %s\n", "search phase", "seconds", "share");
  std::vector<JsonObject> phase_json;
  for (const auto& [name, seconds] : phase_rows) {
    const double share = search_seconds > 0.0 ? seconds / search_seconds : 0.0;
    std::printf("%-22s| %-10s| %5.1f%%\n", name, HumanSeconds(seconds).c_str(),
                100.0 * share);
    phase_json.push_back(JsonObject()
                             .Str("phase", name)
                             .Number("blocked_seconds", seconds)
                             .Number("blocked_share", share));
  }
  const double draw_share =
      search_seconds > 0.0 ? search_draws / search_seconds : 0.0;
  std::printf(
      "estimator MC draws (within estimation phases): %s  ->  %.1f%% of e2e "
      "(size-search evals: %s)\n",
      HumanSeconds(search_draws).c_str(), 100.0 * draw_share,
      HumanSeconds(size_eval_seconds).c_str());

  // --- Estimator draw phase on its own: trains the search's initial model
  // once, then times both Monte-Carlo estimators' draw loops (best of
  // repeats + 1 runs).
  double draw_batched = 1e300;
  {
    RuntimeScope scope(PoolOptions(&pool, flags.threads));
    Rng prep_rng(47);
    // The search's sizes, capped so a reduced BLINKML_SCALE still leaves a
    // training pool larger than the initial sample (n0 < N).
    auto [holdout, train_pool] = search_data->Split(
        std::min(0.25, 1500.0 / static_cast<double>(search_data->num_rows())),
        &prep_rng);
    const Dataset::Index n0 =
        std::min<Dataset::Index>(6000, train_pool.num_rows() - 1);
    const Dataset d0 = train_pool.SampleRows(n0, &prep_rng);
    const LogisticRegressionSpec est_spec(1e-3);
    const auto model = ModelTrainer().Train(est_spec, d0);
    if (!model.ok()) {
      std::fprintf(stderr, "bench model train failed: %s\n",
                   model.status().ToString().c_str());
      return 1;
    }
    StatsOptions stats_options;
    stats_options.stats_sample_size = 256;
    Rng stats_rng(48);
    auto sampler = ComputeStatistics(est_spec, model->theta, d0, stats_options,
                                     &stats_rng);
    if (!sampler.ok()) {
      std::fprintf(stderr, "bench statistics failed: %s\n",
                   sampler.status().ToString().c_str());
      return 1;
    }
    AccuracyOptions acc_options;
    acc_options.num_samples = 192;
    SampleSizeOptions size_options;
    size_options.num_samples = 128;
    size_options.epsilon = contract.epsilon;
    for (int r = 0; r < repeats + 1; ++r) {
      const double a0 = estimator_seconds("accuracy_draws");
      const double s0 = estimator_seconds("size_draws");
      Rng est_rng(53);
      const auto acc = EstimateAccuracy(est_spec, model->theta, n0,
                                        train_pool.num_rows(), *sampler,
                                        holdout, acc_options, &est_rng);
      const auto size = EstimateSampleSize(est_spec, model->theta, n0,
                                           train_pool.num_rows(), *sampler,
                                           holdout, size_options, &est_rng);
      if (!acc.ok() || !size.ok()) {
        std::fprintf(stderr, "bench estimator failed\n");
        return 1;
      }
      draw_batched = std::min(draw_batched,
                              (estimator_seconds("accuracy_draws") - a0) +
                                  (estimator_seconds("size_draws") - s0));
    }
  }
  const char* isa_name =
      CurrentKernelIsa() == KernelIsa::kAvx2 ? "avx2" : "scalar";
  std::printf("estimator draw phase (isa=%s): %s\n", isa_name,
              HumanSeconds(draw_batched).c_str());
  std::printf("checks: %s\n",
              checks_pass ? "kernels within 1e-12 of the reference loops, "
                            "bitwise across thread counts"
                          : "FAILED");

  if (flags.json) {
    JsonObject root;
    root.Str("bench", "kernels")
        .Int("threads", threads)
        .Int("hardware_threads", ThreadPool::DefaultParallelism())
        .Number("scale", scale)
        .Int("repeats", repeats)
        .Number("dense_gram_speedup", micros[0].speedup())
        .Number("sparse_gram_speedup", micros[1].speedup())
        .Number("sparse_matvec_speedup", micros[2].speedup())
        .Number("sparse_matvec_t_speedup", micros[3].speedup())
        .Array("micro", micro_json)
        .Array("thread_scaling", thread_json)
        .Number("search_blocked_seconds", search_seconds)
        .Array("search_phase_breakdown", phase_json)
        .Number("search_estimator_draw_seconds", search_draws)
        .Number("search_estimator_draw_share", draw_share)
        .Str("kernel_isa", isa_name)
        .Number("search_estimator_draw_batched_seconds", draw_batched)
        .Bool("checks_pass", checks_pass);
    if (!WriteBenchFile(flags.json_path, root.ToString())) return 1;
  }
  return checks_pass ? 0 : 1;
}
