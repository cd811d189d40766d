// serve_routed: a ShardRouter over two spawned serve_daemon workers on Unix
// sockets, driven from this one process by three closed-loop connections:
//  - two send Predict back to back, each carrying a trained model and a
//    small batch of rows; the two tenants are picked so that each worker
//    owns one (the router keys Predict by tenant alone);
//  - one alternates Train and Search, whose responses are large frames that
//    carry models.
// For Predict, wire IO, the codec, the router hop and the worker queue do
// most of the work; Train and Search share the same sockets and runners
// with big frames, so a transport change that helps small frames but hurts
// large ones, or starves jobs, shows.
//
// Every routed result is checked: Train and Search bit for bit against an
// in-process SessionManager computed at set-up, each Search's best_index
// against its scores, and Predict outputs against the in-process Predict
// and against predictions recomputed here from the shipped theta and rows.
// The worker binary path is passed in; sockets live in the run's own
// directory and are removed, and every worker is stopped and reaped, before
// the run returns.

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "net/client.h"
#include "net/codec.h"
#include "oracles.h"
#include "serve/session_manager.h"
#include "shard/router.h"

namespace blinkbench {

using namespace blinkml;
using namespace blinkml::net;

namespace {

constexpr std::int64_t kPredictRows = 16;

struct Tenant {
  std::string name;
  RegisterDatasetRequest registration;
  std::string model_class;
  ModelClass cls;
  // Loose enough that every Train and Search candidate stops at m_0: the
  // sample sizes, and with them the processes' memory peaks, then do not
  // depend on the seed.
  double search_epsilon;
  // Set-up results.
  TrainRequestWire train;
  SearchRequestWire search;
  ApproxResult train_ref;
  SearchOutcome search_ref;
  PredictRequestWire predict;
  std::vector<double> expected;  // in-process Predict of `predict`
};

std::string CheckTrain(const Tenant& t, const TrainResponseWire& got) {
  const ApproxResult& want = t.train_ref;
  if (!SameBits(got.model.theta, want.model.theta) ||
      got.sample_size != want.sample_size ||
      !SameBits(got.final_epsilon, want.final_epsilon) ||
      got.used_initial_only != want.used_initial_only) {
    return t.name + ": routed Train differs from the in-process result";
  }
  return "";
}

std::string CheckSearch(const Tenant& t, const SearchResponseWire& got) {
  const SearchOutcome& want = t.search_ref;
  if (got.candidates.size() != want.candidates.size() ||
      got.best_index != want.best_index) {
    return t.name + ": routed Search differs from the in-process result";
  }
  int best = -1;
  for (std::size_t i = 0; i < got.candidates.size(); ++i) {
    const auto& g = got.candidates[i];
    const auto& w = want.candidates[i];
    if (g.status != WireStatus::kOk || !SameBits(g.model.theta, w.result.model.theta) ||
        !SameBits(g.score, w.score) || g.sample_size != w.result.sample_size) {
      return t.name + ": routed Search candidate differs from the in-process result";
    }
    if (best < 0 || g.score > got.candidates[static_cast<std::size_t>(best)].score) {
      best = static_cast<int>(i);
    }
  }
  if (got.best_index != best) return t.name + ": best_index is not the argmax";
  return "";
}

std::vector<Tenant> MakeTenants(std::uint64_t seed) {
  std::vector<Tenant> out(2);
  WireConfig config;
  config.initial_sample_size = 4000;
  config.holdout_size = 1000;
  config.stats_sample_size = 512;
  config.accuracy_samples = 128;
  config.size_samples = 96;

  Tenant& clicks = out[0];
  clicks.registration.name = "clicks";
  clicks.registration.generator = WireGenerator::kSyntheticLogistic;
  clicks.registration.rows = 20000;
  clicks.registration.dim = 32;
  clicks.registration.data_seed = MixSeed(seed, 1);
  clicks.registration.sparsity = 1.0;
  clicks.registration.noise = 0.1;
  clicks.registration.config = config;
  clicks.registration.config.seed = MixSeed(seed, 11);
  clicks.model_class = "LogisticRegression";
  clicks.cls = ModelClass::kLR;
  clicks.search_epsilon = 0.2;

  Tenant& sensors = out[1];
  sensors.registration.name = "sensors";
  sensors.registration.generator = WireGenerator::kGasLike;
  sensors.registration.rows = 20000;
  sensors.registration.dim = 57;
  sensors.registration.data_seed = MixSeed(seed, 2);
  sensors.registration.config = config;
  sensors.registration.config.seed = MixSeed(seed, 12);
  sensors.model_class = "LinearRegression";
  sensors.cls = ModelClass::kLin;
  sensors.search_epsilon = 0.2;
  return out;
}

/// Fills each tenant's requests and the in-process references.
bool PrepareReferences(std::vector<Tenant>* tenants, Report* report) {
  SessionManager manager;
  for (Tenant& t : *tenants) {
    const RegisterDatasetRequest reg = t.registration;
    Status st = manager.RegisterDataset(
        reg.name, [reg] { return std::move(*MakeWireDataset(reg)); },
        ToBlinkConfig(reg.config));
    if (!st.ok()) {
      report->Fail("reference register: " + st.ToString());
      return false;
    }
    t.train = {t.name, reg.name, t.model_class, 1e-3, t.search_epsilon, 0.05, 0};
    t.search.tenant = t.name;
    t.search.dataset = reg.name;
    t.search.model_class = t.model_class;
    t.search.epsilon = t.search_epsilon;
    t.search.delta = 0.05;
    for (const Candidate& c : HyperparamSearch::LogGrid(1e-4, 1e-1, 8)) {
      t.search.candidates.push_back({c.l2, 0});
    }
    TrainRequest train;
    train.dataset = reg.name;
    train.spec = *MakeSpecByName(t.model_class, 1e-3);
    train.contract = {t.search_epsilon, 0.05};
    auto trained = manager.SubmitTrain(train).get();
    SearchRequest search;
    search.dataset = reg.name;
    search.factory = [cls = t.model_class](const Candidate& c) {
      return *MakeSpecByName(cls, c.l2);
    };
    for (const auto& c : t.search.candidates) {
      Candidate cand;
      cand.l2 = c.l2;
      search.candidates.push_back(cand);
    }
    search.options.contract = {t.search_epsilon, 0.05};
    auto searched = manager.SubmitSearch(search).get();
    if (!trained.ok() || !searched.ok()) {
      report->Fail(t.name + ": in-process reference failed");
      return false;
    }
    t.train_ref = std::move(*trained);
    t.search_ref = std::move(*searched);

    // Predict: the reference model and the first rows of the data.
    const Dataset data = *MakeWireDataset(reg);
    t.predict.tenant = t.name;
    t.predict.model_class = t.model_class;
    t.predict.model = t.train_ref.model;
    t.predict.rows = kPredictRows;
    t.predict.dim = reg.dim;
    Matrix rows(kPredictRows, reg.dim);
    for (std::int64_t r = 0; r < kPredictRows; ++r) {
      for (std::int64_t c = 0; c < reg.dim; ++c) {
        t.predict.features.push_back(data.dense()(r, c));
        rows(r, c) = data.dense()(r, c);
      }
    }
    Vector predicted;
    (*MakeSpecByName(t.model_class, 1e-3))
        ->Predict(t.predict.model.theta,
                  Dataset(std::move(rows), Vector(kPredictRows), *TaskForModelClass(t.model_class)),
                  &predicted);
    t.expected.assign(predicted.data(), predicted.data() + predicted.size());
    const std::string why =
        ComparePredictions(t.cls, t.predict.model.theta, t.predict.features,
                           kPredictRows, reg.dim, t.expected);
    report->Check(why.empty(), t.name + " in-process Predict: " + why);
  }
  return true;
}

struct Load {
  std::mutex mu;
  std::vector<double> predict_s, train_s, search_s;
  std::vector<double> predict_done_s;  // completion times since load start
  long long attempted = 0, failed = 0;
  std::uint64_t retries = 0;
  std::vector<std::string> errors;
  double search_bytes = 0.0;
  long long searches_sized = 0;
};

/// Three closed-loop connections for `seconds`.
void RunLoad(const std::string& socket, std::vector<Tenant>& tenants,
             double seconds, Load* load) {
  std::atomic<bool> stop{false};
  const Clock::time_point load_start = Clock::now();
  auto predictor = [&](Tenant* t) {
    auto client = BlinkClient::ConnectUnix(socket);
    std::vector<double> lat, done_at;
    long long attempted = 0, failed = 0;
    std::string error;
    if (client.ok()) {
      while (!stop.load(std::memory_order_relaxed)) {
        const Clock::time_point t0 = Clock::now();
        Result<PredictResponseWire> got = [&] {
          BenchSpan span("bench.op.predict");
          return client->Predict(t->predict);
        }();
        lat.push_back(SecondsSince(t0));
        done_at.push_back(SecondsSince(load_start));
        ++attempted;
        if (!got.ok()) {
          ++failed;
          error = t->name + " Predict: " + got.status().ToString();
        } else if (got->predictions != t->expected) {
          error = t->name + ": routed Predict differs from the in-process Predict";
        }
      }
    } else {
      error = "connect: " + client.status().ToString();
    }
    std::lock_guard<std::mutex> lock(load->mu);
    load->predict_s.insert(load->predict_s.end(), lat.begin(), lat.end());
    load->predict_done_s.insert(load->predict_done_s.end(), done_at.begin(),
                                done_at.end());
    load->attempted += attempted;
    load->failed += failed;
    if (client.ok()) load->retries += client->retry_stats().retries;
    if (!error.empty()) load->errors.push_back(error);
  };
  auto bulk = [&] {
    auto client = BlinkClient::ConnectUnix(socket);
    std::vector<double> train_lat, search_lat;
    long long attempted = 0, failed = 0;
    std::vector<std::string> errors;
    double bytes = 0.0;
    long long sized = 0;
    if (!client.ok()) errors.push_back("connect: " + client.status().ToString());
    for (std::size_t i = 0; client.ok() && !stop.load(); ++i) {
      Tenant& t = tenants[(i / 2) % tenants.size()];
      const Clock::time_point t0 = Clock::now();
      ++attempted;
      if (i % 2 == 0) {
        auto got = [&] {
          BenchSpan span("bench.op.train");
          return client->Train(t.train);
        }();
        train_lat.push_back(SecondsSince(t0));
        if (!got.ok()) {
          ++failed;
          errors.push_back(t.name + " Train: " + got.status().ToString());
        } else if (std::string why = CheckTrain(t, *got); !why.empty()) {
          errors.push_back(why);
        }
      } else {
        auto got = [&] {
          BenchSpan span("bench.op.search");
          return client->Search(t.search);
        }();
        search_lat.push_back(SecondsSince(t0));
        if (!got.ok()) {
          ++failed;
          errors.push_back(t.name + " Search: " + got.status().ToString());
        } else if (std::string why = CheckSearch(t, *got); !why.empty()) {
          errors.push_back(why);
        } else {
          WireWriter w;
          if (Encode(*got, &w).ok()) {
            bytes += static_cast<double>(w.bytes().size());
            ++sized;
          }
        }
      }
    }
    std::lock_guard<std::mutex> lock(load->mu);
    load->train_s.insert(load->train_s.end(), train_lat.begin(), train_lat.end());
    load->search_s.insert(load->search_s.end(), search_lat.begin(), search_lat.end());
    load->attempted += attempted;
    load->failed += failed;
    load->search_bytes += bytes;
    load->searches_sized += sized;
    if (client.ok()) load->retries += client->retry_stats().retries;
    load->errors.insert(load->errors.end(), errors.begin(), errors.end());
  };
  std::vector<std::thread> threads;
  threads.emplace_back(predictor, &tenants[0]);
  threads.emplace_back(predictor, &tenants[1]);
  threads.emplace_back(bulk);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& th : threads) th.join();
}

/// Median latency of `count` sequential Predicts on one fresh connection.
double ProbePredictP50(const std::string& socket, const Tenant& t, int count,
                       Report* report) {
  auto client = BlinkClient::ConnectUnix(socket);
  if (!client.ok()) {
    report->Fail("probe connect " + socket + ": " + client.status().ToString());
    return 0.0;
  }
  std::vector<double> lat;
  for (int i = 0; i < count; ++i) {
    const Clock::time_point t0 = Clock::now();
    auto got = client->Predict(t.predict);
    lat.push_back(SecondsSince(t0));
    report->Check(got.ok() && got->predictions == t.expected,
                  t.name + ": probe Predict differs from the in-process Predict");
  }
  return Median(lat);
}

template <typename Fn>
double MedianCallUs(int count, Fn&& fn) {
  std::vector<double> lat;
  lat.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    lat.push_back(SecondsSince(t0));
  }
  return Median(lat) * 1e6;
}

}  // namespace

int RunServeRouted(const Options& options, Report* report) {
  std::vector<Tenant> tenants = MakeTenants(options.seed);

  const std::string pid = std::to_string(::getpid());
  shard::RouterOptions router_options;
  router_options.unix_path = options.out_dir + "/r" + pid + ".sock";
  router_options.num_shards = 2;
  router_options.worker.worker_binary = options.worker_binary;
  router_options.worker.socket_dir = options.out_dir;
  router_options.worker.socket_prefix = "w" + pid + "_";
  router_options.worker.runner_threads = 2;
  router_options.worker.inherit_env_failpoints = false;
  // Two workers of two lanes each plus this process's client threads keep
  // the machine's four cores from being oversubscribed by pool lanes.
  ::setenv("BLINKML_NUM_THREADS", "2", 1);
  shard::ShardRouter router(router_options);
  // The router's destructor stops it and reaps the workers on every path.
  if (Status st = router.Start(); !st.ok()) {
    report->Fail("router start: " + st.ToString());
    return 1;
  }
  // Tenants whose Predicts land on different workers.
  std::vector<std::string> names;
  for (int i = 0; i < 64 && names.size() < 2; ++i) {
    const std::string name = "tenant-" + std::to_string(i);
    if (names.empty() ||
        router.OwnerShard({name, ""}) != router.OwnerShard({names[0], ""})) {
      names.push_back(name);
    }
  }
  if (names.size() < 2) {
    report->Fail("no tenant pair spans both workers");
    return 1;
  }
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    tenants[i].name = names[i];
    tenants[i].registration.tenant = names[i];
  }
  if (!PrepareReferences(&tenants, report)) return 1;
  {
    auto client = BlinkClient::ConnectUnix(router_options.unix_path);
    if (!client.ok()) {
      report->Fail("connect: " + client.status().ToString());
      return 1;
    }
    for (const Tenant& t : tenants) {
      if (auto r = client->RegisterDataset(t.registration); !r.ok()) {
        report->Fail("register: " + r.status().ToString());
        return 1;
      }
    }
  }
  // Warm-up: one pass of every routed verb, outside the timed region.
  Load warm;
  RunLoad(router_options.unix_path, tenants, 0.5, &warm);
  while (warm.search_s.empty()) {
    Load more;
    RunLoad(router_options.unix_path, tenants, 0.5, &more);
    warm.search_s.insert(warm.search_s.end(), more.search_s.begin(), more.search_s.end());
    warm.errors.insert(warm.errors.end(), more.errors.begin(), more.errors.end());
    if (!more.errors.empty()) break;
  }
  for (const std::string& e : warm.errors) report->Fail("warm-up: " + e);
  if (!warm.errors.empty()) return 1;
  const double setup_s = SecondsSince(options.process_start);

  auto account = [&](const Load& load) {
    report->attempted += load.attempted;
    report->failed += load.failed;
    for (const std::string& e : load.errors) report->Fail(e);
  };
  auto peak_rss = [&] {
    double worker = 0.0;
    for (const auto& w : router.supervisor().AllStatus()) {
      if (w.pid > 0) worker = std::max(worker, PeakRssMb(w.pid));
    }
    std::fprintf(stderr, "peak RSS: this process %.1f MB, largest worker %.1f MB\n",
                 PeakRssMb(), worker);
    return PeakRssMb() + worker;
  };

  if (!options.trace) {
    Load load;
    RunLoad(router_options.unix_path, tenants, options.seconds, &load);
    // Predicts completed in each whole second; the median second is robust
    // to a second that another tenant of the machine slowed.
    std::vector<double> per_second(static_cast<std::size_t>(options.seconds), 0.0);
    for (double t : load.predict_done_s) {
      const auto k = static_cast<std::size_t>(t);
      if (k < per_second.size()) per_second[k] += 1.0;
    }
    account(load);
    report->Check(!load.train_s.empty() && !load.search_s.empty(),
                  "no routed Train or Search completed");
    const double rss = peak_rss();
    router.Stop();
    report->Metric("setup_s", setup_s, "s");
    report->Metric("peak_rss_mb", rss, "MB");
    report->Metric("p50_ms", Median(load.predict_s) * 1e3, "ms");
    report->Metric("tail_ms", Percentile(load.predict_s, 0.99) * 1e3, "ms");
    report->Metric("ops_per_s", Median(per_second), "1/s");
    return 0;
  }

  Load plain;
  RunLoad(router_options.unix_path, tenants, options.seconds / 2, &plain);
  account(plain);
  StartTracing(options);
  Load traced;
  RunLoad(router_options.unix_path, tenants, options.seconds / 2, &traced);
  const auto events = StopTracing(report);
  account(traced);
  std::map<std::string, double> l;
  const double ops = static_cast<double>(traced.predict_s.size() +
                                         traced.train_s.size() + traced.search_s.size());
  for (const auto& [layer, self_s] : SelfTimeByLayer(FoldSpans(events))) {
    if (layer != "other") l["self." + layer + "_s"] = self_s / ops;
  }
  std::vector<double> train_s = plain.train_s, search_s = plain.search_s;
  train_s.insert(train_s.end(), traced.train_s.begin(), traced.train_s.end());
  search_s.insert(search_s.end(), traced.search_s.begin(), traced.search_s.end());
  l["serve.routed_train_p50_ms"] = Median(train_s) * 1e3;
  l["serve.routed_search_p50_ms"] = Median(search_s) * 1e3;
  l["net.search_response_bytes"] =
      (plain.search_bytes + traced.search_bytes) /
      std::max<long long>(1, plain.searches_sized + traced.searches_sized);
  l["client.retries"] = static_cast<double>(plain.retries + traced.retries);
  const double untraced_ms = Median(plain.predict_s) * 1e3;
  const double traced_ms = Median(traced.predict_s) * 1e3;
  l["trace.untraced_p50_ms"] = untraced_ms;
  l["trace.traced_p50_ms"] = traced_ms;
  l["trace.overhead_ms"] = traced_ms - untraced_ms;

  // Quiet probes: the same Predicts routed and sent straight to the owning
  // worker, then the codec and the in-process compute on their own.
  const Tenant& t = tenants[0];
  const int owner = router.OwnerShard({t.name, ""});
  const std::string direct_socket =
      router.supervisor().status(static_cast<std::uint32_t>(owner)).socket_path;
  const double routed_us =
      ProbePredictP50(router_options.unix_path, t, 2000, report) * 1e6;
  const double direct_us = ProbePredictP50(direct_socket, t, 2000, report) * 1e6;
  l["net.direct_predict_p50_us"] = direct_us;
  l["shard.hop_us"] = routed_us - direct_us;
  WireWriter encoded;
  l["net.predict_encode_us"] = MedianCallUs(2000, [&] {
    WireWriter w;
    (void)Encode(t.predict, &w);
    encoded = std::move(w);
  });
  l["net.predict_frame_bytes"] = static_cast<double>(encoded.bytes().size());
  bool decoded_ok = true;
  l["net.predict_decode_us"] = MedianCallUs(2000, [&] {
    WireReader reader(encoded.bytes().data(), encoded.bytes().size());
    PredictRequestWire back;
    decoded_ok = decoded_ok && Decode(&reader, &back).ok() &&
                 SameBits(back.model.theta, t.predict.model.theta);
  });
  report->Check(decoded_ok, "Predict request does not survive the codec");
  const auto spec = *MakeSpecByName(t.model_class, 1e-3);
  Matrix rows(kPredictRows, t.predict.dim);
  std::memcpy(rows.data(), t.predict.features.data(),
              t.predict.features.size() * sizeof(double));
  const Dataset rows_data(std::move(rows), Vector(kPredictRows),
                          *TaskForModelClass(t.model_class));
  l["serve.predict_compute_us"] = MedianCallUs(2000, [&] {
    Vector out;
    spec->Predict(t.predict.model.theta, rows_data, &out);
  });
  const shard::RouterStatsSnapshot stats = router.stats();
  l["shard.forwarded"] = static_cast<double>(stats.forwarded);
  l["shard.unavailable"] = static_cast<double>(stats.unavailable);
  router.Stop();
  EmitPerLayer(l, report);
  return 0;
}

}  // namespace blinkbench
