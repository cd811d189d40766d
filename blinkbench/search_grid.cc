// search_grid: one in-process caller sends SessionManager::SubmitSearch
// lambda-grid searches of 8 concurrent candidates, closed loop, over two
// resident datasets: high-dimensional sparse logistic data (initial_train
// dominates its searches) and dense max-entropy data.
//
// Every search uses a fresh session seed, so each pays its own shared prefix
// once and then shares it, the sample cache and the feature-Gram cache
// across its candidates; the byte budget evicts the old sessions. This is
// where session-layer work (prefix sharing, caches, batched scoring,
// candidate parallelism) shows, and a pure compute-layer change shows less
// than in train_mix.
//
// A round is three searches (Round() below). The run repeats whole rounds
// until it has measured for --seconds and has at least kMinSearches
// searches.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/coordinator.h"
#include "data/generators.h"
#include "models/logistic_regression.h"
#include "models/max_entropy.h"
#include "runtime/thread_pool.h"
#include "serve/session_manager.h"

namespace blinkbench {

using namespace blinkml;

namespace {

constexpr int kMinSearches = 40;  // p75 needs ten samples beyond it
constexpr int kCandidates = 8;

struct GridData {
  std::string name;
  std::shared_ptr<const Dataset> data;
  BlinkConfig config;
  SpecFactory factory;
};

std::vector<GridData> MakeData(std::uint64_t seed) {
  const int lanes = std::min(4, ThreadPool::DefaultParallelism());
  std::vector<GridData> out(2);
  GridData& sparse = out[0];
  sparse.name = "sparse-logistic";
  sparse.data = std::make_shared<const Dataset>(MakeSyntheticLogistic(
      9000, 10000, MixSeed(seed, 1), /*sparsity=*/0.05, /*noise=*/0.1));
  // The sparse search configuration of bench/bench_kernels.cc.
  sparse.config.initial_sample_size = 6000;
  sparse.config.holdout_size = 1500;
  sparse.config.stats_sample_size = 256;
  sparse.config.accuracy_samples = 192;
  sparse.config.size_samples = 128;
  sparse.factory = [](const Candidate& c) {
    return std::make_shared<LogisticRegressionSpec>(c.l2);
  };

  GridData& dense = out[1];
  dense.name = "dense-maxent";
  dense.data = std::make_shared<const Dataset>(
      MakeMnistLike(15000, MixSeed(seed, 2), 36, 10));
  dense.config.initial_sample_size = 3000;
  dense.config.holdout_size = 1500;
  dense.config.stats_sample_size = 512;
  dense.config.accuracy_samples = 192;
  dense.config.size_samples = 128;
  dense.factory = [](const Candidate& c) {
    return std::make_shared<MaxEntropySpec>(c.l2);
  };
  for (GridData& d : out) d.config.runtime.num_threads = lanes;
  return out;
}

struct Kind {
  int dataset;
  double epsilon;  // requested 1 - accuracy, delta 0.05
};

// Two sparse searches and one dense one: an odd count per round keeps the
// median inside the sparse group. A third kind, sparse searches at epsilon
// 0.04 whose candidates go on to final training, made the memory peak
// depend on the seed (spread 0.155 over five seeds) and was dropped.
const std::vector<Kind>& Round() {
  static const auto* round = new std::vector<Kind>{{0, 0.08}, {1, 0.08}, {0, 0.08}};
  return *round;
}

bool SameModel(const ApproxResult& a, const ApproxResult& b) {
  return SameBits(a.model.theta, b.model.theta) && a.sample_size == b.sample_size &&
         SameBits(a.final_epsilon, b.final_epsilon);
}

struct Searcher {
  SessionManager* manager;
  const std::vector<GridData>* data;
  std::uint64_t seed;
  Report* report;
  std::uint64_t next_session = 0;

  struct Done {
    SearchOutcome outcome;
    double seconds = 0.0;
    std::uint64_t session_seed = 0;
    Kind kind;
  };

  /// One search, checked: every candidate trained, best_index is the argmax
  /// of the returned scores (ties to the lower index).
  bool Run(const Kind& kind, Done* done) {
    const GridData& d = (*data)[static_cast<std::size_t>(kind.dataset)];
    SearchRequest request;
    request.dataset = d.name;
    request.factory = d.factory;
    request.candidates = HyperparamSearch::LogGrid(1e-4, 1e-1, kCandidates);
    request.options.contract = {kind.epsilon, 0.05};
    request.seed = MixSeed(seed, 1000 + next_session++);
    const Clock::time_point start = Clock::now();
    Result<SearchOutcome> outcome = [&] {
      BenchSpan span("bench.op.search");
      return manager->SubmitSearch(std::move(request)).get();
    }();
    done->seconds = SecondsSince(start);
    done->session_seed = MixSeed(seed, 1000 + next_session - 1);
    done->kind = kind;
    ++report->attempted;
    if (!outcome.ok()) {
      report->Fail(d.name + " search: " + outcome.status().ToString());
      ++report->failed;
      return false;
    }
    const auto& cands = outcome->candidates;
    int best = -1;
    bool all_ok = cands.size() == static_cast<std::size_t>(kCandidates);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      all_ok = all_ok && cands[i].status.ok() && !cands[i].skipped;
      if (best < 0 || cands[i].score > cands[static_cast<std::size_t>(best)].score) {
        best = static_cast<int>(i);
      }
    }
    report->Check(all_ok, d.name + ": a candidate failed or was skipped");
    report->Check(outcome->best_index == best,
                  d.name + ": best_index is not the argmax of the scores");
    done->outcome = std::move(*outcome);
    return true;
  }
};

}  // namespace

int RunSearchGrid(const Options& options, Report* report) {
  const std::vector<GridData> all = MakeData(options.seed);
  ServeOptions serve;
  // Small enough that no finished session stays resident: every search
  // builds its session from scratch and the next one evicts it.
  serve.max_resident_bytes = 8ull << 20;
  serve.max_concurrent_jobs = 1;
  SessionManager manager(serve);
  for (const GridData& d : all) {
    const Status st = manager.RegisterDataset(d.name, Dataset(*d.data), d.config);
    if (!st.ok()) {
      report->Fail("register " + d.name + ": " + st.ToString());
      return 1;
    }
  }
  Searcher searcher{&manager, &all, options.seed, report};
  // Warm-up round, outside the timed region.
  for (const Kind& kind : Round()) {
    Searcher::Done done;
    if (!searcher.Run(kind, &done)) return 1;
  }
  report->attempted = 0;  // the warm-up is not part of the measured run
  const double setup_s = SecondsSince(options.process_start);

  struct PhaseOut {
    std::vector<double> latencies;
    std::vector<double> round_s;
    std::map<std::string, double> layer;
  };
  // The candidate this run re-trains standalone: a seeded pick.
  const int audit_search = 1;
  const int audit_candidate = static_cast<int>(options.seed % kCandidates);
  Searcher::Done audit;
  auto run_phase = [&](double seconds, int min_searches) {
    PhaseOut phase;
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < seconds ||
           static_cast<int>(phase.latencies.size()) < min_searches) {
      const Clock::time_point round_start = Clock::now();
      for (const Kind& kind : Round()) {
        Searcher::Done done;
        if (!searcher.Run(kind, &done)) continue;
        phase.latencies.push_back(done.seconds);
        const SessionStats& s = done.outcome.session_stats;
        auto& l = phase.layer;
        l["core.jobs"] += s.runs;
        l["session.prefix_computes"] += s.prefixes_computed;
        l["session.batched_score_groups"] += done.outcome.batched_score_groups;
        l["sample_hits"] += static_cast<double>(s.cache.hits);
        l["session.sample_cache_lookups"] +=
            static_cast<double>(s.cache.hits + s.cache.misses);
        l["gram_hits"] += static_cast<double>(s.gram_cache.hits);
        l["session.gram_cache_lookups"] +=
            static_cast<double>(s.gram_cache.hits + s.gram_cache.misses);
        for (const CandidateResult& c : done.outcome.candidates) {
          l["core.initial_only_jobs"] += c.result.used_initial_only ? 1 : 0;
          l["core.size_evaluations"] += c.result.size_estimate.evaluations;
          l["optim.initial_iterations"] += c.result.initial_iterations;
          l["optim.final_iterations"] += c.result.final_iterations;
          l["models.rows_trained"] += static_cast<double>(
              c.result.used_initial_only ? c.result.sample_size
                                         : c.result.sample_size + all[static_cast<std::size_t>(done.kind.dataset)]
                                                                      .config.initial_sample_size);
        }
        if (audit.outcome.candidates.empty() &&
            static_cast<int>(phase.latencies.size()) == audit_search + 1) {
          audit = std::move(done);
        }
      }
      phase.round_s.push_back(SecondsSince(round_start));
    }
    return phase;
  };

  PhaseOut timed, plain;
  std::vector<obs::TraceEvent> events;
  if (!options.trace) {
    timed = run_phase(options.seconds, kMinSearches);
  } else {
    plain = run_phase(options.seconds / 2, 0);
    StartTracing(options);
    timed = run_phase(options.seconds / 2, 0);
    events = StopTracing(report);
  }

  // One sampled candidate must equal a standalone Coordinator::Train.
  if (!audit.outcome.candidates.empty()) {
    const GridData& d = all[static_cast<std::size_t>(audit.kind.dataset)];
    const CandidateResult& c =
        audit.outcome.candidates[static_cast<std::size_t>(audit_candidate)];
    BlinkConfig config = d.config;
    config.seed = audit.session_seed;
    auto standalone = Coordinator(config).Train(*d.factory(c.candidate), *d.data,
                                                {audit.kind.epsilon, 0.05});
    report->Check(standalone.ok() && SameModel(*standalone, c.result),
                  d.name + ": search candidate differs from a standalone "
                           "Coordinator::Train");
  } else {
    report->Fail("no search was audited");
  }

  if (!options.trace) {
    report->Metric("setup_s", setup_s, "s");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Metric("p50_ms", Median(timed.latencies) * 1e3, "ms");
    report->Metric("tail_ms", Percentile(timed.latencies, 0.75) * 1e3, "ms");
    // Candidates per median round: robust to a round that another tenant of
    // the machine slowed.
    report->Metric("ops_per_s",
                   static_cast<double>(Round().size() * kCandidates) /
                       Median(timed.round_s),
                   "1/s");
    return 0;
  }

  const auto fold = FoldSpans(events);
  auto inclusive = [&](const char* name) {
    const auto it = fold.find(name);
    return it == fold.end() ? 0.0 : it->second.inclusive_s;
  };
  std::map<std::string, double>& l = timed.layer;
  const double searches = static_cast<double>(timed.latencies.size());
  l["core.prefix_s"] = inclusive("prefix:compute") / searches;
  l["core.initial_train_s"] = inclusive("initial_train") / searches;
  l["core.statistics_s"] = inclusive("statistics") / searches;
  l["core.accuracy_estimation_s"] = inclusive("accuracy_estimation") / searches;
  l["core.size_estimation_s"] = inclusive("size_estimation") / searches;
  l["core.final_train_s"] = inclusive("final_train") / searches;
  l["core.mc_accuracy_draws_s"] = inclusive("mc:accuracy_draws") / searches;
  l["core.mc_size_draws_s"] = inclusive("mc:size_draws") / searches;
  l["linalg.gram_s"] =
      (inclusive("kernel:GramRows") + inclusive("kernel:GramCols")) / searches;
  l["linalg.sparse_gram_s"] = inclusive("kernel:SparseGram") / searches;
  l["session.sample_cache_hit_ratio"] =
      l["sample_hits"] / std::max(1.0, l["session.sample_cache_lookups"]);
  l["session.gram_cache_hit_ratio"] =
      l["gram_hits"] / std::max(1.0, l["session.gram_cache_lookups"]);
  l.erase("sample_hits");
  l.erase("gram_hits");
  const double job_s = inclusive("manager:search") / searches;
  l["serve.search_job_s"] = job_s;
  l["serve.handoff_s"] = Mean(timed.latencies) - job_s;
  for (const auto& [layer, self_s] : SelfTimeByLayer(fold)) {
    if (layer != "other") l["self." + layer + "_s"] = self_s / searches;
  }
  const double untraced_ms = Median(plain.latencies) * 1e3;
  const double traced_ms = Median(timed.latencies) * 1e3;
  l["trace.untraced_p50_ms"] = untraced_ms;
  l["trace.traced_p50_ms"] = traced_ms;
  l["trace.overhead_ms"] = traced_ms - untraced_ms;
  EmitPerLayer(l, report);
  return 0;
}

}  // namespace blinkbench
