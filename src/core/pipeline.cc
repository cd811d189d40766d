#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"

namespace blinkml {

namespace {

using Index = Dataset::Index;

StatsOptions StatsOptionsFrom(const BlinkConfig& config) {
  StatsOptions options;
  options.method = config.stats_method;
  options.stats_sample_size = config.stats_sample_size;
  options.max_rank = config.sampler_max_rank;
  options.reuse_feature_gram = config.reuse_feature_gram;
  return options;
}

}  // namespace

PhaseTimings& PhaseTimings::operator+=(const PhaseTimings& other) {
  initial_train += other.initial_train;
  statistics += other.statistics;
  size_estimation += other.size_estimation;
  final_train += other.final_train;
  accuracy_estimation += other.accuracy_estimation;
  total += other.total;
  return *this;
}

Result<TrainingPrefix> ComputeTrainingPrefix(const Dataset& data,
                                             const BlinkConfig& config,
                                             SampleCache* cache) {
  if (data.num_rows() < 10) {
    return Status::InvalidArgument("dataset too small");
  }
  RuntimeScope runtime_scope(config.runtime);
  WallTimer timer;
  Rng rng(config.seed);
  TrainingPrefix prefix;

  // Holdout split. The holdout estimates v; everything else is the pool
  // the "full model" would be trained on. Only the holdout and the (much
  // smaller) training samples are materialized; the pool stays an index
  // view into `data` so no O(N) copy is ever made.
  Index holdout_size = std::min<Index>(config.holdout_size,
                                       data.num_rows() / 5);
  holdout_size = std::max<Index>(holdout_size, 1);
  Rng split_rng = rng.Split();
  std::vector<Index> perm = RandomPermutation(data.num_rows(), &split_rng);
  std::vector<Index> holdout_rows(perm.begin(), perm.begin() + holdout_size);
  auto pool_rows = std::make_shared<std::vector<Index>>(
      perm.begin() + holdout_size, perm.end());
  auto materialize_holdout = [&] { return data.TakeRows(holdout_rows); };
  bool holdout_retained = false;
  prefix.holdout =
      cache ? cache->GetOrCreate({SampleCache::Purpose::kHoldout, config.seed,
                                  holdout_size},
                                 materialize_holdout, &holdout_retained)
            : std::make_shared<const Dataset>(materialize_holdout());
  if (!holdout_retained) prefix.uncached_bytes += prefix.holdout->MemoryBytes();
  prefix.full_n = static_cast<Index>(pool_rows->size());
  prefix.pool_rows = std::move(pool_rows);

  // Initial sample D_0. On a cache hit sample_rng goes unused; it is a
  // dead-end stream (nothing downstream reads it), so skipping the draws
  // leaves every later stream untouched.
  const Index n0 = std::min<Index>(config.initial_sample_size, prefix.full_n);
  Rng sample_rng = rng.Split();
  auto materialize_d0 = [&] {
    std::vector<Index> chosen =
        SampleWithoutReplacement(prefix.full_n, n0, &sample_rng);
    for (Index& c : chosen) {
      c = (*prefix.pool_rows)[static_cast<std::size_t>(c)];
    }
    return data.TakeRows(chosen);
  };
  bool d0_retained = false;
  prefix.initial_sample =
      cache ? cache->GetOrCreate(
                  {SampleCache::Purpose::kInitialSample, config.seed, n0},
                  materialize_d0, &d0_retained)
            : std::make_shared<const Dataset>(materialize_d0());
  if (!d0_retained) {
    prefix.uncached_bytes += prefix.initial_sample->MemoryBytes();
  }
  prefix.n0 = n0;
  prefix.seconds = timer.Seconds();
  return prefix;
}

TrainingPipeline::TrainingPipeline(
    const ModelSpec& spec, const Dataset& data,
    const ApproximationContract& contract, const BlinkConfig& config,
    std::shared_ptr<const TrainingPrefix> prefix, SampleCache* cache,
    FeatureGramCache* gram_cache)
    : spec_(&spec),
      data_(&data),
      contract_(contract),
      config_(&config),
      prefix_(std::move(prefix)),
      cache_(cache),
      gram_cache_(gram_cache),
      rng_(config.seed) {
  // The prefix consumed the first two streams of the master Rng (holdout
  // split, D_0 draw); discard them so the stage streams below line up with
  // the monolithic path bitwise.
  rng_.Split();
  rng_.Split();
  out_.contract = contract_;
  out_.full_size = prefix_->full_n;
  out_.holdout = prefix_->holdout;
}

Status TrainingPipeline::TrainInitial() {
  BLINKML_CHECK_MSG(next_stage_ == 0, "TrainInitial called out of order");
  next_stage_ = 1;
  RuntimeScope runtime_scope(config_->runtime);
  const ModelTrainer trainer(config_->trainer);
  {
    obs::PhaseScope t("initial_train", &out_.timings.initial_train);
    BLINKML_ASSIGN_OR_RETURN(m0_,
                             trainer.Train(*spec_, *prefix_->initial_sample));
  }
  out_.initial_iterations = m0_.iterations;
  return Status::OK();
}

Status TrainingPipeline::ComputeInitialStatistics() {
  BLINKML_CHECK_MSG(next_stage_ == 1,
                    "ComputeInitialStatistics called out of order");
  next_stage_ = 2;
  RuntimeScope runtime_scope(config_->runtime);
  Rng stats_rng = rng_.Split();
  StatsOptions options = StatsOptionsFrom(*config_);
  if (gram_cache_ != nullptr) {
    // D_0 and the stats sub-sample drawn from it (the stream split above)
    // are pure functions of (seed, n_0), so every candidate on this seed
    // shares one feature Gram.
    options.gram_cache = gram_cache_;
    options.gram_key = {FeatureGramCache::Phase::kInitialStats,
                        config_->seed, prefix_->initial_sample->num_rows()};
  }
  {
    obs::PhaseScope t("statistics", &out_.timings.statistics);
    BLINKML_ASSIGN_OR_RETURN(
        sampler_,
        ComputeStatistics(*spec_, m0_.theta, *prefix_->initial_sample,
                          options, &stats_rng));
  }
  return Status::OK();
}

Status TrainingPipeline::EstimateInitialAccuracy() {
  BLINKML_CHECK_MSG(next_stage_ == 2,
                    "EstimateInitialAccuracy called out of order");
  next_stage_ = 3;
  RuntimeScope runtime_scope(config_->runtime);
  AccuracyOptions acc_options;
  acc_options.num_samples = config_->accuracy_samples;
  acc_options.delta = contract_.delta;
  Rng acc_rng = rng_.Split();
  AccuracyEstimate eps0;
  {
    obs::PhaseScope t("accuracy_estimation", &out_.timings.accuracy_estimation);
    BLINKML_ASSIGN_OR_RETURN(
        eps0, EstimateAccuracy(*spec_, m0_.theta, prefix_->n0, prefix_->full_n,
                               sampler_, *prefix_->holdout, acc_options,
                               &acc_rng));
  }
  out_.initial_epsilon = eps0.epsilon;
  accuracy_estimated_ = true;
  return Status::OK();
}

bool TrainingPipeline::initial_meets_contract() const {
  return accuracy_estimated_ && out_.initial_epsilon <= contract_.epsilon;
}

Status TrainingPipeline::EstimateMinimumSampleSize() {
  BLINKML_CHECK_MSG(next_stage_ == 3,
                    "EstimateMinimumSampleSize called out of order");
  next_stage_ = 4;
  RuntimeScope runtime_scope(config_->runtime);
  SampleSizeOptions size_options;
  size_options.num_samples = config_->size_samples;
  size_options.epsilon = contract_.epsilon;
  size_options.delta = contract_.delta;
  size_options.min_n = std::max<Index>(config_->min_sample_size, prefix_->n0);
  Rng size_rng = rng_.Split();
  {
    obs::PhaseScope t("size_estimation", &out_.timings.size_estimation);
    BLINKML_ASSIGN_OR_RETURN(
        out_.size_estimate,
        EstimateSampleSize(*spec_, m0_.theta, prefix_->n0, prefix_->full_n,
                           sampler_, *prefix_->holdout, size_options,
                           &size_rng));
  }
  BLINKML_LOG(INFO) << spec_->name() << ": estimated minimum sample size "
                    << out_.size_estimate.sample_size << " of "
                    << prefix_->full_n;
  return Status::OK();
}

void TrainingPipeline::QuantizeEstimatedSampleSize() {
  BLINKML_CHECK_MSG(next_stage_ == 4,
                    "QuantizeEstimatedSampleSize must follow "
                    "EstimateMinimumSampleSize");
  const Index raw = out_.size_estimate.sample_size;
  if (raw >= prefix_->full_n || raw <= 0) return;
  // Smallest grid point round(2^(k/4)) >= raw. A pure function of raw, so
  // equal (or near-equal) estimates on any thread/schedule land on the
  // same grid point.
  const double ratio = std::pow(2.0, 0.25);
  double g = 1.0;
  while (static_cast<Index>(std::llround(g)) < raw) g *= ratio;
  const Index quantized =
      std::min<Index>(static_cast<Index>(std::llround(g)), prefix_->full_n);
  if (quantized <= raw) return;  // already on the grid
  out_.size_estimate.quantized_from = raw;
  out_.size_estimate.sample_size = quantized;
}

Status TrainingPipeline::TrainFinal() {
  BLINKML_CHECK_MSG(next_stage_ == 4, "TrainFinal called out of order");
  next_stage_ = 5;
  RuntimeScope runtime_scope(config_->runtime);
  const Index n = out_.size_estimate.sample_size;
  const Index full_n = prefix_->full_n;

  TrainerOptions final_options = config_->trainer;
  if (config_->warm_start_final && !spec_->has_closed_form_trainer()) {
    final_options.warm_start = m0_.theta;
  }
  const ModelTrainer final_trainer(final_options);

  // Final sample. The rows are a pure function of (seed, n) — the master
  // Rng splits the same number of streams on every path to this stage — so
  // the cache shares one materialization across candidates that land on
  // the same n. On a hit final_rng is a dead-end stream, like sample_rng
  // in the prefix. Materializing the sample is part of the final_train
  // phase: it is work the final model costs.
  Rng final_rng = rng_.Split();
  std::shared_ptr<const Dataset> dn;
  {
    obs::PhaseScope t("final_train", &out_.timings.final_train);
    if (n >= full_n) {
      auto materialize = [&] { return data_->TakeRows(*prefix_->pool_rows); };
      dn = cache_ ? cache_->GetOrCreate(
                        {SampleCache::Purpose::kFullPool, config_->seed,
                         full_n},
                        materialize)
                  : std::make_shared<const Dataset>(materialize());
    } else {
      auto materialize = [&] {
        std::vector<Index> chosen =
            SampleWithoutReplacement(full_n, n, &final_rng);
        for (Index& c : chosen) {
          c = (*prefix_->pool_rows)[static_cast<std::size_t>(c)];
        }
        return data_->TakeRows(chosen);
      };
      dn = cache_ ? cache_->GetOrCreate(
                        {SampleCache::Purpose::kFinalSample, config_->seed, n},
                        materialize)
                  : std::make_shared<const Dataset>(materialize());
    }
    BLINKML_ASSIGN_OR_RETURN(mn_, final_trainer.Train(*spec_, *dn));
  }
  out_.final_iterations = mn_.iterations;
  final_n_ = dn->num_rows();
  out_.sample_size = final_n_;

  // Re-estimate the returned model's bound with statistics at theta_n.
  if (config_->reestimate_final_accuracy && final_n_ < full_n) {
    Rng restats_rng = rng_.Split();
    Rng reacc_rng = rng_.Split();
    StatsOptions restats_options = StatsOptionsFrom(*config_);
    if (gram_cache_ != nullptr) {
      // The final sample's rows are a pure function of (seed, n) — the
      // same property the kFinalSample entry of the sample cache relies
      // on — and the stats sub-sample stream is at a fixed split offset,
      // so candidates landing on the same n share this Gram too.
      restats_options.gram_cache = gram_cache_;
      restats_options.gram_key = {FeatureGramCache::Phase::kFinalStats,
                                  config_->seed, dn->num_rows()};
    }
    ParamSampler final_sampler = ParamSampler::FromDenseFactor(Matrix());
    {
      obs::PhaseScope t("statistics", &out_.timings.statistics);
      BLINKML_ASSIGN_OR_RETURN(
          final_sampler,
          ComputeStatistics(*spec_, mn_.theta, *dn, restats_options,
                            &restats_rng));
    }
    AccuracyOptions acc_options;
    acc_options.num_samples = config_->accuracy_samples;
    acc_options.delta = contract_.delta;
    AccuracyEstimate eps_final;
    {
      obs::PhaseScope t("accuracy_estimation", &out_.timings.accuracy_estimation);
      BLINKML_ASSIGN_OR_RETURN(
          eps_final,
          EstimateAccuracy(*spec_, mn_.theta, final_n_, full_n, final_sampler,
                           *prefix_->holdout, acc_options, &reacc_rng));
    }
    out_.final_epsilon = eps_final.epsilon;
  } else {
    out_.final_epsilon = (final_n_ >= full_n) ? 0.0 : contract_.epsilon;
  }
  final_trained_ = true;
  return Status::OK();
}

ApproxResult TrainingPipeline::Finish() {
  BLINKML_CHECK_MSG(accuracy_estimated_,
                    "Finish requires at least EstimateInitialAccuracy");
  if (final_trained_) {
    out_.model = std::move(mn_);
    out_.used_initial_only = false;
  } else {
    if (initial_meets_contract()) {
      BLINKML_LOG(INFO) << spec_->name()
                        << ": initial model meets the contract (eps0="
                        << out_.initial_epsilon << " <= " << contract_.epsilon
                        << ")";
    }
    out_.model = std::move(m0_);
    out_.sample_size = prefix_->n0;
    out_.final_epsilon = out_.initial_epsilon;
    out_.used_initial_only = true;
  }
  out_.contract_satisfied = out_.final_epsilon <= contract_.epsilon;
  out_.timings.total = total_timer_.Seconds();
  return std::move(out_);
}

Result<ApproxResult> TrainingPipeline::RunAll() {
  BLINKML_RETURN_NOT_OK(TrainInitial());
  BLINKML_RETURN_NOT_OK(ComputeInitialStatistics());
  BLINKML_RETURN_NOT_OK(EstimateInitialAccuracy());
  if (!initial_meets_contract()) {
    BLINKML_RETURN_NOT_OK(EstimateMinimumSampleSize());
    BLINKML_RETURN_NOT_OK(TrainFinal());
  }
  return Finish();
}

}  // namespace blinkml
