// Networked serving front (src/net/): a Train/Search/Predict round trip
// through the socket must be bitwise identical to the same SessionManager
// call in-process at any server runner-thread count; malformed frames
// must be answered with error frames without killing the server;
// deadline-expired and over-quota requests must be rejected with their
// distinct statuses without disturbing concurrent jobs.

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.h"
#include "util/failpoints.h"
#include "net/codec.h"
#include "net/job_queue.h"
#include "net/protocol.h"
#include "net/quotas.h"
#include "net/server.h"
#include "serve/session_manager.h"
#include "tests/test_util.h"

namespace blinkml {
namespace net {
namespace {

std::string SocketPath(const char* tag) {
  return ::testing::TempDir() + "blinkml_net_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

WireConfig FastWireConfig(std::uint64_t seed) {
  WireConfig config;
  config.seed = seed;
  config.initial_sample_size = 1000;
  config.holdout_size = 1000;
  config.accuracy_samples = 256;
  config.size_samples = 128;
  return config;
}

RegisterDatasetRequest LogisticRegistration(const std::string& tenant,
                                            const std::string& name) {
  RegisterDatasetRequest request;
  request.tenant = tenant;
  request.name = name;
  request.generator = WireGenerator::kSyntheticLogistic;
  request.rows = 4000;
  request.dim = 5;
  request.data_seed = 3;
  request.config = FastWireConfig(11);
  return request;
}

void ExpectModelBitwise(const TrainedModel& a, const TrainedModel& b,
                        const char* what) {
  ASSERT_EQ(a.theta.size(), b.theta.size()) << what;
  for (Vector::Index i = 0; i < a.theta.size(); ++i) {
    EXPECT_EQ(a.theta[i], b.theta[i]) << what << " theta[" << i << "]";
  }
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.sample_size, b.sample_size) << what;
}

// --- Round trips -------------------------------------------------------

// The acceptance bar: a Train + Predict through the socket must return the
// exact bits the in-process SessionManager produces, at 1/2/8 server
// runner threads.
TEST(BlinkServer, TrainPredictRoundTripBitwiseAtAnyRunnerThreadCount) {
  const RegisterDatasetRequest registration =
      LogisticRegistration("tenant-a", "wire-logistic");

  // In-process reference: same factory, same config, same request.
  SessionManager reference;
  ASSERT_TRUE(reference
                  .RegisterDataset(
                      registration.name,
                      [registration] {
                        return std::move(*MakeWireDataset(registration));
                      },
                      ToBlinkConfig(registration.config))
                  .ok());
  TrainRequest reference_train;
  reference_train.dataset = registration.name;
  reference_train.spec = *MakeSpecByName("LogisticRegression", 1e-3);
  reference_train.contract = {0.01, 0.05};
  const auto reference_result =
      reference.SubmitTrain(reference_train).get();
  ASSERT_TRUE(reference_result.ok())
      << reference_result.status().ToString();

  // Reference predictions on a deterministic probe matrix.
  const Dataset probe_data = *MakeWireDataset(registration);
  const Dataset::Index probe_rows = 16;
  std::vector<double> probe(static_cast<std::size_t>(probe_rows) * 5);
  for (Dataset::Index r = 0; r < probe_rows; ++r) {
    for (Dataset::Index c = 0; c < 5; ++c) {
      probe[static_cast<std::size_t>(r * 5 + c)] =
          probe_data.dense()(r, c);
    }
  }

  for (const int threads : {1, 2, 8}) {
    SessionManager manager(ServeOptions{0, threads});
    ServerOptions options;
    options.unix_path = SocketPath("roundtrip");
    options.runner_threads = threads;
    BlinkServer server(&manager, options);
    ASSERT_TRUE(server.Start().ok());

    auto client = BlinkClient::ConnectUnix(options.unix_path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();

    const auto registered = client->RegisterDataset(registration);
    ASSERT_TRUE(registered.ok()) << registered.status().ToString();
    EXPECT_EQ(registered->dataset_bytes, probe_data.MemoryBytes());

    TrainRequestWire train;
    train.tenant = "tenant-a";
    train.dataset = registration.name;
    train.model_class = "LogisticRegression";
    train.l2 = 1e-3;
    train.epsilon = 0.01;
    train.delta = 0.05;
    const auto trained = client->Train(train);
    ASSERT_TRUE(trained.ok()) << trained.status().ToString();

    ExpectModelBitwise(trained->model, reference_result->model,
                       "served train");
    EXPECT_EQ(trained->sample_size, reference_result->sample_size);
    EXPECT_EQ(trained->full_size, reference_result->full_size);
    EXPECT_EQ(trained->initial_epsilon, reference_result->initial_epsilon);
    EXPECT_EQ(trained->final_epsilon, reference_result->final_epsilon);
    EXPECT_EQ(trained->used_initial_only,
              reference_result->used_initial_only);
    EXPECT_EQ(trained->contract_satisfied,
              reference_result->contract_satisfied);
    EXPECT_EQ(trained->initial_iterations,
              reference_result->initial_iterations);
    EXPECT_EQ(trained->final_iterations,
              reference_result->final_iterations);

    // Ship the served model straight back for predictions; compare with
    // the spec's in-process Predict on the same rows.
    PredictRequestWire predict;
    predict.tenant = "tenant-a";
    predict.model_class = "LogisticRegression";
    predict.model = trained->model;
    predict.rows = probe_rows;
    predict.dim = 5;
    predict.features = probe;
    const auto predicted = client->Predict(predict);
    ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();

    Matrix probe_matrix(probe_rows, 5);
    std::memcpy(probe_matrix.data(), probe.data(),
                probe.size() * sizeof(double));
    const Dataset probe_set(std::move(probe_matrix), Vector(probe_rows),
                            Task::kBinary);
    Vector expected;
    (*MakeSpecByName("LogisticRegression", 1e-3))
        ->Predict(reference_result->model.theta, probe_set, &expected);
    ASSERT_EQ(predicted->predictions.size(),
              static_cast<std::size_t>(expected.size()));
    for (Vector::Index i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(predicted->predictions[static_cast<std::size_t>(i)],
                expected[i])
          << "prediction " << i << " at " << threads << " threads";
    }

    server.Stop();
  }
}

TEST(BlinkServer, SearchRoundTripBitwise) {
  const RegisterDatasetRequest registration =
      LogisticRegistration("tenant-s", "wire-search");

  SessionManager reference;
  ASSERT_TRUE(reference
                  .RegisterDataset(
                      registration.name,
                      [registration] {
                        return std::move(*MakeWireDataset(registration));
                      },
                      ToBlinkConfig(registration.config))
                  .ok());
  SearchRequest reference_search;
  reference_search.dataset = registration.name;
  reference_search.factory = [](const Candidate& c) {
    return *MakeSpecByName("LogisticRegression", c.l2);
  };
  reference_search.candidates = HyperparamSearch::LogGrid(1e-4, 1e-1, 3);
  reference_search.options.contract = {0.01, 0.05};
  const auto reference_outcome =
      reference.SubmitSearch(reference_search).get();
  ASSERT_TRUE(reference_outcome.ok());

  SessionManager manager(ServeOptions{0, 2});
  ServerOptions options;
  options.unix_path = SocketPath("search");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->RegisterDataset(registration).ok());

  SearchRequestWire search;
  search.tenant = "tenant-s";
  search.dataset = registration.name;
  search.model_class = "LogisticRegression";
  for (const Candidate& c : reference_search.candidates) {
    search.candidates.push_back({c.l2, c.seed});
  }
  search.epsilon = 0.01;
  search.delta = 0.05;
  const auto outcome = client->Search(search);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  EXPECT_EQ(outcome->best_index, reference_outcome->best_index);
  ASSERT_EQ(outcome->candidates.size(),
            reference_outcome->candidates.size());
  for (std::size_t i = 0; i < outcome->candidates.size(); ++i) {
    const auto& served = outcome->candidates[i];
    const auto& expected = reference_outcome->candidates[i];
    ASSERT_EQ(served.status == WireStatus::kOk, expected.status.ok());
    EXPECT_EQ(served.l2, expected.candidate.l2);
    EXPECT_EQ(served.score, expected.score);
    EXPECT_EQ(served.final_epsilon, expected.result.final_epsilon);
    EXPECT_EQ(served.sample_size, expected.result.sample_size);
    ExpectModelBitwise(served.model, expected.result.model, "search");
  }
}

// --- Malformed input ---------------------------------------------------

class RawConnection {
 public:
  explicit RawConnection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void SendRaw(const std::vector<std::uint8_t>& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Reads one response frame and returns its envelope.
  ResponseEnvelope ReadEnvelope(std::uint64_t* request_id = nullptr) {
    Frame frame;
    const Status status = ReadFrame(fd_, &frame);
    EXPECT_TRUE(status.ok()) << status.ToString();
    ResponseEnvelope envelope;
    if (status.ok()) {
      WireReader reader(frame.payload.data(), frame.payload.size());
      EXPECT_TRUE(Decode(&reader, &envelope).ok());
      if (request_id != nullptr) *request_id = frame.header.request_id;
    }
    return envelope;
  }

  /// True when the server closed its end (EOF within the deadline).
  bool WaitForClose() {
    std::uint8_t byte;
    const ssize_t n = ::recv(fd_, &byte, 1, 0);
    return n == 0;
  }

 private:
  int fd_ = -1;
};

std::vector<std::uint8_t> FrameBytes(const FrameHeader& header,
                                     const std::vector<std::uint8_t>& payload,
                                     bool fix_len = true) {
  FrameHeader h = header;
  if (fix_len) h.payload_len = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> bytes(kFrameHeaderBytes + payload.size());
  EncodeFrameHeader(h, bytes.data());
  std::memcpy(bytes.data() + kFrameHeaderBytes, payload.data(),
              payload.size());
  return bytes;
}

std::vector<std::uint8_t> StatsPayload(const std::string& tenant) {
  StatsRequestWire request;
  request.tenant = tenant;
  WireWriter writer;
  Encode(request, &writer);
  return writer.bytes();
}

TEST(BlinkServer, MalformedFramesAnswerErrorsAndServerStaysUp) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("malformed");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  // Bad magic: unsynchronizable -> error frame, then the connection
  // closes.
  {
    RawConnection conn(options.unix_path);
    ASSERT_TRUE(conn.ok());
    FrameHeader header;
    header.verb = Verb::kStats;
    header.request_id = 7;
    std::vector<std::uint8_t> bytes =
        FrameBytes(header, StatsPayload("raw"));
    bytes[0] ^= 0xFF;
    conn.SendRaw(bytes);
    const ResponseEnvelope envelope = conn.ReadEnvelope();
    EXPECT_EQ(envelope.status, WireStatus::kMalformedFrame);
    EXPECT_TRUE(conn.WaitForClose());
  }

  // Oversized payload length: also framing corruption.
  {
    RawConnection conn(options.unix_path);
    ASSERT_TRUE(conn.ok());
    FrameHeader header;
    header.verb = Verb::kStats;
    header.payload_len = kMaxPayloadBytes + 1;
    std::vector<std::uint8_t> bytes(kFrameHeaderBytes);
    EncodeFrameHeader(header, bytes.data());
    conn.SendRaw(bytes);
    const ResponseEnvelope envelope = conn.ReadEnvelope();
    EXPECT_EQ(envelope.status, WireStatus::kMalformedFrame);
    EXPECT_TRUE(conn.WaitForClose());
  }

  // Truncated header + hangup: nothing to answer; the server must just
  // reap the connection.
  {
    RawConnection conn(options.unix_path);
    ASSERT_TRUE(conn.ok());
    conn.SendRaw({0x4B, 0x4E, 0x4C});
  }

  // Unknown verb: in-frame error; the SAME connection keeps working.
  {
    RawConnection conn(options.unix_path);
    ASSERT_TRUE(conn.ok());
    FrameHeader header;
    header.verb = static_cast<Verb>(99);
    header.request_id = 21;
    conn.SendRaw(FrameBytes(header, StatsPayload("raw")));
    std::uint64_t echoed = 0;
    ResponseEnvelope envelope = conn.ReadEnvelope(&echoed);
    EXPECT_EQ(envelope.status, WireStatus::kUnknownVerb);
    EXPECT_EQ(echoed, 21u);

    header.verb = Verb::kStats;
    header.request_id = 22;
    conn.SendRaw(FrameBytes(header, StatsPayload("raw")));
    envelope = conn.ReadEnvelope(&echoed);
    EXPECT_EQ(envelope.status, WireStatus::kOk);
    EXPECT_EQ(echoed, 22u);
  }

  // Version mismatch: error frame with the request id echoed; connection
  // stays alive.
  {
    RawConnection conn(options.unix_path);
    ASSERT_TRUE(conn.ok());
    FrameHeader header;
    header.version = kWireVersion + 1;
    header.verb = Verb::kStats;
    header.request_id = 33;
    conn.SendRaw(FrameBytes(header, StatsPayload("raw")));
    std::uint64_t echoed = 0;
    ResponseEnvelope envelope = conn.ReadEnvelope(&echoed);
    EXPECT_EQ(envelope.status, WireStatus::kVersionMismatch);
    EXPECT_EQ(echoed, 33u);

    header.version = kWireVersion;
    header.request_id = 34;
    conn.SendRaw(FrameBytes(header, StatsPayload("raw")));
    envelope = conn.ReadEnvelope(&echoed);
    EXPECT_EQ(envelope.status, WireStatus::kOk);
  }

  // Undecodable payload (tenant peek fails): kDecodeError, alive.
  {
    RawConnection conn(options.unix_path);
    ASSERT_TRUE(conn.ok());
    FrameHeader header;
    header.verb = Verb::kTrain;
    header.request_id = 40;
    conn.SendRaw(FrameBytes(header, {0x01, 0x02}));
    ResponseEnvelope envelope = conn.ReadEnvelope();
    EXPECT_EQ(envelope.status, WireStatus::kDecodeError);

    header.verb = Verb::kStats;
    header.request_id = 41;
    conn.SendRaw(FrameBytes(header, StatsPayload("raw")));
    envelope = conn.ReadEnvelope();
    EXPECT_EQ(envelope.status, WireStatus::kOk);
  }

  // After all of that abuse, a fresh client still gets full service, and
  // the counters saw every rejection.
  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  const auto stats = client->Stats("raw");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->server.rejected_malformed, 2u);
  EXPECT_EQ(stats->server.rejected_unknown_verb, 1u);
  EXPECT_EQ(stats->server.rejected_version, 1u);
  EXPECT_EQ(stats->server.rejected_decode, 1u);
}

// A Predict whose rows * dim wraps 64-bit arithmetic must be answered as
// a decode error, not attempted as an allocation: 2^31 rows x 2^30 dims
// multiply to 2^61 doubles whose byte size is 0 mod 2^64, so a guard
// that multiplies instead of dividing would wave it through.
TEST(BlinkServer, PredictRowsTimesDimOverflowIsADecodeError) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("overflow");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  PredictRequestWire predict;
  predict.tenant = "raw";
  predict.model_class = "LogisticRegression";
  predict.model.theta = Vector(2);
  predict.rows = 1;
  predict.dim = 1;
  predict.features = {1.0};
  WireWriter writer;
  ASSERT_TRUE(Encode(predict, &writer).ok());
  std::vector<std::uint8_t> payload = writer.Take();

  // The payload ends with rows (i64), dim (i64), then the doubles.
  const auto patch_u64 = [&payload](std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      payload[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  patch_u64(payload.size() - 24, std::uint64_t{1} << 31);  // rows
  patch_u64(payload.size() - 16, std::uint64_t{1} << 30);  // dim

  RawConnection conn(options.unix_path);
  ASSERT_TRUE(conn.ok());
  FrameHeader header;
  header.verb = Verb::kPredict;
  header.request_id = 50;
  conn.SendRaw(FrameBytes(header, payload));
  std::uint64_t echoed = 0;
  const ResponseEnvelope envelope = conn.ReadEnvelope(&echoed);
  EXPECT_EQ(envelope.status, WireStatus::kDecodeError);
  EXPECT_EQ(echoed, 50u);

  // The connection and the server both survive.
  header.verb = Verb::kStats;
  header.request_id = 51;
  conn.SendRaw(FrameBytes(header, StatsPayload("raw")));
  EXPECT_EQ(conn.ReadEnvelope().status, WireStatus::kOk);
}

// Multi-MB responses must survive the server's non-blocking connection
// fds: a response larger than the free socket send-buffer space sees
// EAGAIN mid-frame, which has to poll-and-resume rather than tear the
// connection down.
TEST(BlinkServer, MultiMegabytePredictRoundTripsBitwise) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("bigresp");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());

  const Dataset::Index rows = 400000;
  const Dataset::Index dim = 2;
  std::vector<double> features(static_cast<std::size_t>(rows) *
                               static_cast<std::size_t>(dim));
  for (std::size_t i = 0; i < features.size(); ++i) {
    features[i] = 1e-3 * static_cast<double>(i % 997);
  }
  Matrix matrix(rows, dim);
  std::memcpy(matrix.data(), features.data(),
              features.size() * sizeof(double));
  const Dataset data(std::move(matrix), Vector(rows), Task::kBinary);

  const auto spec = *MakeSpecByName("LogisticRegression", 1e-3);
  PredictRequestWire predict;
  predict.tenant = "big";
  predict.model_class = "LogisticRegression";
  predict.model.theta = Vector(spec->ParamDim(data));
  for (Vector::Index i = 0; i < predict.model.theta.size(); ++i) {
    predict.model.theta[i] = 0.25 * static_cast<double>(i + 1);
  }
  predict.rows = rows;
  predict.dim = dim;
  predict.features = features;

  // ~6.4 MB request, ~3.2 MB response — both far beyond kernel socket
  // buffers.
  const auto predicted = client->Predict(predict);
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();

  Vector expected;
  spec->Predict(predict.model.theta, data, &expected);
  ASSERT_EQ(predicted->predictions.size(),
            static_cast<std::size_t>(expected.size()));
  for (Vector::Index i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(predicted->predictions[static_cast<std::size_t>(i)],
              expected[i])
        << "prediction " << i;
  }
}

// --- Scheduling --------------------------------------------------------

TEST(BlinkServer, DeadlineExpiredJobsRejectedWithDistinctStatus) {
  SessionManager manager(ServeOptions{0, 1});
  ServerOptions options;
  options.unix_path = SocketPath("deadline");
  options.runner_threads = 1;
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  RegisterDatasetRequest registration =
      LogisticRegistration("tenant-d", "wire-deadline");
  registration.rows = 20000;
  registration.dim = 12;
  auto setup = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(setup.ok());
  ASSERT_TRUE(setup->RegisterDataset(registration).ok());

  // One connection, two frames in one write: a Train that occupies the
  // single runner for many milliseconds (it lazily generates 20000 x 12
  // rows first), and a Stats request with a 1 ms deadline. FIFO order
  // guarantees the Stats job waits behind the Train, so its deadline is
  // long gone when the runner reaches it — deterministically, with no
  // sleeps in the test.
  RawConnection conn(options.unix_path);
  ASSERT_TRUE(conn.ok());
  TrainRequestWire train;
  train.tenant = "tenant-d";
  train.dataset = registration.name;
  train.model_class = "LogisticRegression";
  train.epsilon = 0.01;
  train.delta = 0.05;
  WireWriter train_payload;
  Encode(train, &train_payload);
  FrameHeader train_header;
  train_header.verb = Verb::kTrain;
  train_header.request_id = 1;
  FrameHeader stats_header;
  stats_header.verb = Verb::kStats;
  stats_header.request_id = 2;
  stats_header.deadline_ms = 1;
  std::vector<std::uint8_t> burst =
      FrameBytes(train_header, train_payload.bytes());
  const std::vector<std::uint8_t> stats_frame =
      FrameBytes(stats_header, StatsPayload("tenant-d"));
  burst.insert(burst.end(), stats_frame.begin(), stats_frame.end());
  conn.SendRaw(burst);

  // The runner answers in pop order: the (undisturbed) training first,
  // then the expired Stats.
  std::uint64_t echoed = 0;
  ResponseEnvelope envelope = conn.ReadEnvelope(&echoed);
  EXPECT_EQ(envelope.status, WireStatus::kOk);
  EXPECT_EQ(echoed, 1u);
  envelope = conn.ReadEnvelope(&echoed);
  EXPECT_EQ(envelope.status, WireStatus::kDeadlineExceeded);
  EXPECT_EQ(echoed, 2u);

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  const auto after = client->Stats("tenant-d");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->server.rejected_deadline, 1u);
}

TEST(BlinkServer, QuotaRejectionsAreDistinctAndScopedToTheTenant) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("quota");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  // Tenant with a one-request burst and a glacial refill.
  TenantQuotaOptions throttled;
  throttled.requests_per_second = 1e-3;
  throttled.burst = 1.0;
  server.quotas().SetTenantOptions("throttled", throttled);

  // Tenant whose byte quota fits nothing.
  TenantQuotaOptions tiny;
  tiny.max_outstanding_bytes = 4;
  tiny.over_quota_retry_ms = 250;
  server.quotas().SetTenantOptions("tiny", tiny);

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client->Stats("throttled").ok());
  const auto limited = client->Stats("throttled");
  ASSERT_FALSE(limited.ok());
  EXPECT_NE(limited.status().message().find("RateLimited"),
            std::string::npos);
  EXPECT_GT(client->last_retry_after_ms(), 0u);

  const auto over = client->Stats("tiny");
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.status().message().find("OverQuota"), std::string::npos);
  EXPECT_EQ(client->last_retry_after_ms(), 250u);

  // Unthrottled tenants on the same server are untouched.
  const auto other = client->Stats("other");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->server.rejected_rate, 1u);
  EXPECT_EQ(other->server.rejected_quota, 1u);
}

TEST(BlinkServer, RegisteredDatasetBytesCountAgainstTheByteQuota) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("resident");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  // Room for the dataset plus small request payloads — but nothing
  // sizable on top of the resident charge (4000 x 6 doubles is ~192 KB).
  const RegisterDatasetRequest registration =
      LogisticRegistration("hoarder", "wire-resident");
  const std::uint64_t dataset_bytes =
      MakeWireDataset(registration)->MemoryBytes();
  TenantQuotaOptions quota;
  quota.max_outstanding_bytes = dataset_bytes + 1024;
  server.quotas().SetTenantOptions("hoarder", quota);

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  const auto registered = client->RegisterDataset(registration);
  ASSERT_TRUE(registered.ok()) << registered.status().ToString();
  EXPECT_EQ(registered->dataset_bytes, dataset_bytes);
  EXPECT_EQ(server.quotas().ResidentBytes("hoarder"), dataset_bytes);

  // A second dataset would double the resident charge: rejected by the
  // pre-materialization check, leaving the charge untouched.
  const auto second = client->RegisterDataset(
      LogisticRegistration("hoarder", "wire-resident-2"));
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.status().message().find("OverQuota"), std::string::npos);
  EXPECT_EQ(server.quotas().ResidentBytes("hoarder"), dataset_bytes);

  // Any payload bigger than the quota's slack is rejected at enqueue
  // admission because the resident bytes count against the same cap.
  PredictRequestWire predict;
  predict.tenant = "hoarder";
  predict.model_class = "LogisticRegression";
  predict.model.theta = Vector(6);
  predict.rows = 256;
  predict.dim = 5;
  predict.features.assign(256 * 5, 1.0);
  const auto rejected = client->Predict(predict);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("OverQuota"),
            std::string::npos);
}

TEST(BlinkServer, OversizedRegisterDatasetRejectedBeforeMaterialization) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("oversized");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  TenantQuotaOptions quota;
  quota.max_outstanding_bytes = 32ull * 1024 * 1024;
  server.quotas().SetTenantOptions("bounded", quota);

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());

  // ~88 MB estimated from a few-hundred-byte request: the tenant's byte
  // quota rejects it from the wire parameters alone — the server must
  // never attempt the allocation.
  RegisterDatasetRequest big = LogisticRegistration("bounded", "big");
  big.rows = 1000000;
  big.dim = 10;
  const auto over = client->RegisterDataset(big);
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.status().message().find("OverQuota"), std::string::npos);
  EXPECT_GT(client->last_retry_after_ms(), 0u);
  EXPECT_EQ(server.quotas().ResidentBytes("bounded"), 0u);

  // ~80 TB: beyond even an unlimited byte quota, the server-wide
  // per-dataset cap rejects it (before the quota check — a capped
  // request can never succeed, so "retry later" would mislead).
  RegisterDatasetRequest huge = LogisticRegistration("unbounded", "huge");
  huge.rows = 1000000000;
  huge.dim = 10000;
  const auto capped = client->RegisterDataset(huge);
  ASSERT_FALSE(capped.ok());
  EXPECT_NE(capped.status().message().find("per-dataset cap"),
            std::string::npos);

  // The server is unharmed and the same tenants can still register data
  // that fits.
  const auto small =
      client->RegisterDataset(LogisticRegistration("bounded", "small"));
  ASSERT_TRUE(small.ok()) << small.status().ToString();
}

TEST(BlinkServer, StatsVerbReportsManagerAndServerCounters) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("stats");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      client->RegisterDataset(LogisticRegistration("t", "wire-stats")).ok());
  TrainRequestWire train;
  train.tenant = "t";
  train.dataset = "wire-stats";
  train.model_class = "LogisticRegression";
  train.epsilon = 0.05;
  train.delta = 0.05;
  ASSERT_TRUE(client->Train(train).ok());

  const auto stats = client->Stats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->manager.jobs_submitted, 1u);
  EXPECT_EQ(stats->manager.jobs_completed, 1u);
  EXPECT_EQ(stats->manager.live_sessions, 1);
  EXPECT_EQ(stats->manager.loaded_datasets, 1);
  EXPECT_EQ(stats->manager.loads_in_progress, 0);
  EXPECT_GT(stats->manager.cached_bytes, 0u);
  EXPECT_GE(stats->server.frames_received, 3u);
  EXPECT_GE(stats->server.jobs_enqueued, 3u);

  const auto evicted = client->EvictIdle("t");
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(evicted->sessions_evicted, 1);
}

// --- Resilience: shed, connection cap, idle reap, health ---------------

/// Tests below arm failpoints; keep every test hermetic (and immune to a
/// BLINKML_FAILPOINTS env schedule leaking in).
struct ScopedFailpoints {
  ScopedFailpoints() { fail::Failpoints::Global().DisarmAll(); }
  ~ScopedFailpoints() { fail::Failpoints::Global().DisarmAll(); }
};

std::vector<std::uint8_t> TrainPayload(const std::string& tenant,
                                       const std::string& dataset) {
  TrainRequestWire train;
  train.tenant = tenant;
  train.dataset = dataset;
  train.model_class = "LogisticRegression";
  train.epsilon = 0.05;
  train.delta = 0.05;
  WireWriter writer;
  Encode(train, &writer);
  return writer.bytes();
}

TEST(BlinkServer, ShedsAtQueueHighWaterWithRetryHint) {
  ScopedFailpoints guard;
  // Hold the single runner on the first job so the queue backs up.
  ASSERT_TRUE(fail::Failpoints::Global()
                  .ArmFromSpec("manager.train=delay:300@limit:2")
                  .ok());
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("shed");
  options.runner_threads = 1;
  options.shed_queue_depth = 1;
  options.shed_retry_ms = 77;
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  RawConnection conn(options.unix_path);
  ASSERT_TRUE(conn.ok());
  const std::vector<std::uint8_t> payload = TrainPayload("t", "nope");
  FrameHeader header;
  header.verb = Verb::kTrain;
  // Frame 1 must be running — popped, and held by the delay failpoint —
  // before frames 2 and 3 arrive. Sent together, frame 2 could find
  // frame 1 still queued and shed, and the runner could then pop frame 1
  // before frame 3 is admitted, leaving frame 3 an empty queue. Once the
  // failpoint has fired the runner is busy for 300 ms: frame 2 is queued
  // and frame 3 must shed — rejected BEFORE enqueue, with the configured
  // hint.
  header.request_id = 1;
  conn.SendRaw(FrameBytes(header, payload));
  for (int i = 0; i < 5000 && fail::Failpoints::Global().Fires(
                                 "manager.train") == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(fail::Failpoints::Global().Fires("manager.train"), 1u);
  for (std::uint64_t id = 2; id <= 3; ++id) {
    header.request_id = id;
    conn.SendRaw(FrameBytes(header, payload));
  }
  std::map<std::uint64_t, ResponseEnvelope> by_id;
  for (int i = 0; i < 3; ++i) {
    std::uint64_t id = 0;
    const ResponseEnvelope envelope = conn.ReadEnvelope(&id);
    by_id[id] = envelope;
  }
  ASSERT_EQ(by_id.count(3), 1u);
  EXPECT_EQ(by_id[3].status, WireStatus::kOverloaded);
  EXPECT_EQ(by_id[3].retry_after_ms, 77u);
  EXPECT_TRUE(IsRetryableWireStatus(by_id[3].status));

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  const auto stats = client->Stats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->server.rejected_shed, 1u);
}

TEST(BlinkServer, ConnectionCapRejectsWithStructuredFrameAtAccept) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("conncap");
  options.max_connections = 1;
  options.shed_retry_ms = 33;
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  auto first = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->Stats("t").ok());  // the slot is genuinely usable

  // One over the cap: a structured kOverloaded frame, then EOF — never a
  // silent drop.
  RawConnection second(options.unix_path);
  ASSERT_TRUE(second.ok());
  const ResponseEnvelope envelope = second.ReadEnvelope();
  EXPECT_EQ(envelope.status, WireStatus::kOverloaded);
  EXPECT_EQ(envelope.retry_after_ms, 33u);
  EXPECT_TRUE(second.WaitForClose());

  // The in-cap connection is untouched, and a freed slot is reusable.
  EXPECT_TRUE(first->Stats("t").ok());
  const auto stats = first->Stats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->server.rejected_max_connections, 1u);
  first = Result<BlinkClient>(Status::IOError("dropped"));  // close slot
  // connect() itself succeeds even over the cap (the reject is an error
  // frame at accept), so poll until the IO thread has noticed the freed
  // slot.
  bool reused = false;
  for (int i = 0; i < 100 && !reused; ++i) {
    auto third = BlinkClient::ConnectUnix(options.unix_path);
    ASSERT_TRUE(third.ok());
    reused = third->Stats("t").ok();
    if (!reused) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(reused);
}

TEST(BlinkServer, IdleConnectionsAreReapedWithoutAnExtraThread) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("idle");
  options.idle_timeout_ms = 60;
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  RawConnection idle(options.unix_path);
  ASSERT_TRUE(idle.ok());
  // Never sends a byte: the IO loop's poll-timeout reaper must close it.
  EXPECT_TRUE(idle.WaitForClose());

  // The server keeps serving fresh connections afterwards.
  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  const auto stats = client->Stats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->server.idle_reaped, 1u);
}

TEST(BlinkServer, HealthProbeReportsShedAndDrainState) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("health");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  const auto health = client->Health("t");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_TRUE(health->accepting);
  EXPECT_FALSE(health->shedding);
  EXPECT_GE(health->open_connections, 1);
  EXPECT_EQ(health->rejected_shed, 0u);
}

// Satellite: the retry-after hint from a rejection must not leak past
// the next successful call.
TEST(BlinkClient, RetryAfterHintResetsOnSuccess) {
  SessionManager manager;
  ServerOptions options;
  options.unix_path = SocketPath("hintreset");
  BlinkServer server(&manager, options);
  ASSERT_TRUE(server.Start().ok());

  TenantQuotaOptions throttled;
  throttled.requests_per_second = 1e-3;
  throttled.burst = 1.0;
  server.quotas().SetTenantOptions("throttled", throttled);

  auto client = BlinkClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Stats("throttled").ok());
  ASSERT_FALSE(client->Stats("throttled").ok());
  EXPECT_GT(client->last_retry_after_ms(), 0u);
  EXPECT_EQ(client->last_wire_status(), WireStatus::kRateLimited);

  ASSERT_TRUE(client->Stats("free").ok());
  EXPECT_EQ(client->last_retry_after_ms(), 0u);
  EXPECT_EQ(client->last_wire_status(), WireStatus::kOk);
}

// --- Protocol unit tests -----------------------------------------------

// The server's connection fds are non-blocking; a frame that overruns a
// full send buffer must poll for POLLOUT and resume, not fail with
// EAGAIN. Tiny socket buffers plus a reader that sleeps first make the
// EAGAIN deterministic.
TEST(Protocol, WriteFramePollsThroughAFullSendBufferOnANonBlockingFd) {
  int fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  const int small = 8 * 1024;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  const int flags = ::fcntl(fds[0], F_GETFL, 0);
  ASSERT_EQ(0, ::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK));

  std::vector<std::uint8_t> payload(2 * 1024 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  FrameHeader header;
  header.verb = Verb::kPredict;
  header.request_id = 99;

  Frame received;
  Status read_status = Status::OK();
  std::thread reader([&] {
    // Let the writer fill the send buffer and hit EAGAIN before any byte
    // is drained.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    read_status = ReadFrame(fds[1], &received);
  });
  const Status write_status =
      WriteFrame(fds[0], header, payload.data(), payload.size());
  reader.join();
  EXPECT_TRUE(write_status.ok()) << write_status.ToString();
  ASSERT_TRUE(read_status.ok()) << read_status.ToString();
  EXPECT_EQ(received.header.request_id, 99u);
  ASSERT_EQ(received.payload.size(), payload.size());
  EXPECT_TRUE(received.payload == payload);
  ::close(fds[0]);
  ::close(fds[1]);
}

// Satellite: the write-stall timeout is a WriteOptions knob (the server
// passes ServerOptions::write_stall_timeout_ms through), and a stall is
// distinguishable from other IO errors via the out-param.
TEST(Protocol, WriteStallTimeoutIsConfigurableAndReportsTheStall) {
  int fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  const int small = 8 * 1024;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  const int flags = ::fcntl(fds[0], F_GETFL, 0);
  ASSERT_EQ(0, ::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK));

  // Nobody ever reads fds[1]: the frame must give up after the
  // configured stall timeout, not the 30s default.
  std::vector<std::uint8_t> payload(4 * 1024 * 1024);
  FrameHeader header;
  header.verb = Verb::kPredict;
  header.request_id = 1;
  WriteOptions options;
  options.stall_timeout_ms = 100;
  bool stalled = false;
  const auto start = std::chrono::steady_clock::now();
  const Status status = WriteFrame(fds[0], header, payload.data(),
                                   payload.size(), options, &stalled);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(stalled);
  EXPECT_GE(elapsed, 100);
  EXPECT_LT(elapsed, 5000);  // gave up at ~the knob, nowhere near 30s
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Protocol, ReaderDoublesRejectsCountsWhoseByteSizeWraps) {
  std::vector<std::uint8_t> buf(64, 0);
  WireReader reader(buf.data(), buf.size());
  std::vector<double> out;
  // count * sizeof(double) == 0 mod 2^64: a multiplying bounds check
  // would pass and resize() would attempt a 2^61-element allocation.
  reader.Doubles(std::size_t{1} << 61, &out);
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(out.empty());
}

// --- JobQueue unit tests -----------------------------------------------

TEST(JobQueue, DrainsInPriorityOrderFifoWithinPriority) {
  JobQueue queue;
  std::vector<int> order;
  auto push = [&](int id, std::int32_t priority) {
    JobQueue::Job job;
    job.priority = priority;
    job.run = [&order, id] { order.push_back(id); };
    ASSERT_TRUE(queue.Push(std::move(job)));
  };
  push(1, 0);
  push(2, 5);
  push(3, 0);
  push(4, 5);
  push(5, -1);

  queue.Shutdown();
  JobQueue::Job job;
  while (queue.Pop(&job)) job.run();
  EXPECT_EQ(order, (std::vector<int>{2, 4, 1, 3, 5}));
}

TEST(JobQueue, BoundedPushRejectsWhenFull) {
  JobQueue queue(2);
  JobQueue::Job job;
  job.run = [] {};
  ASSERT_TRUE(queue.Push(JobQueue::Job{0, {}, false, {}, [] {}, [] {}}));
  ASSERT_TRUE(queue.Push(JobQueue::Job{0, {}, false, {}, [] {}, [] {}}));
  EXPECT_FALSE(queue.Push(JobQueue::Job{0, {}, false, {}, [] {}, [] {}}));
  queue.Shutdown();
  EXPECT_FALSE(queue.Push(JobQueue::Job{0, {}, false, {}, [] {}, [] {}}));
}

TEST(JobQueue, ExpiredChecksTheDeadline) {
  JobQueue::Job job;
  EXPECT_FALSE(JobQueue::Expired(job));  // no deadline
  job.has_deadline = true;
  job.deadline = std::chrono::steady_clock::now() -
                 std::chrono::milliseconds(1);
  EXPECT_TRUE(JobQueue::Expired(job));
  job.deadline = std::chrono::steady_clock::now() +
                 std::chrono::seconds(60);
  EXPECT_FALSE(JobQueue::Expired(job));
}

// --- TenantQuotas unit tests (fake clock) ------------------------------

TEST(TenantQuotas, TokenBucketRefillsAtTheConfiguredRate) {
  std::uint64_t now_micros = 0;
  TenantQuotaOptions defaults;
  defaults.requests_per_second = 10.0;
  defaults.burst = 2.0;
  TenantQuotas quotas(defaults, [&now_micros] { return now_micros; });

  // Burst of 2, then empty.
  EXPECT_TRUE(quotas.Admit("t", 0).admitted());
  EXPECT_TRUE(quotas.Admit("t", 0).admitted());
  const AdmissionDecision rejected = quotas.Admit("t", 0);
  EXPECT_EQ(rejected.status, WireStatus::kRateLimited);
  // 10 req/s = a token every 100 ms.
  EXPECT_EQ(rejected.retry_after_ms, 100u);

  now_micros += 50 * 1000;  // half a token
  EXPECT_EQ(quotas.Admit("t", 0).retry_after_ms, 50u);
  now_micros += 50 * 1000;  // full token
  EXPECT_TRUE(quotas.Admit("t", 0).admitted());

  // Refill caps at burst even after a long idle stretch.
  now_micros += 3600u * 1000 * 1000;
  EXPECT_TRUE(quotas.Admit("t", 0).admitted());
  EXPECT_TRUE(quotas.Admit("t", 0).admitted());
  EXPECT_EQ(quotas.Admit("t", 0).status, WireStatus::kRateLimited);
}

TEST(TenantQuotas, ByteQuotaChargesOutstandingAndResident) {
  TenantQuotaOptions defaults;
  defaults.max_outstanding_bytes = 100;
  defaults.over_quota_retry_ms = 70;
  TenantQuotas quotas(defaults, [] { return std::uint64_t{0}; });

  EXPECT_TRUE(quotas.Admit("t", 60).admitted());
  EXPECT_EQ(quotas.OutstandingBytes("t"), 60u);
  const AdmissionDecision rejected = quotas.Admit("t", 50);
  EXPECT_EQ(rejected.status, WireStatus::kOverQuota);
  EXPECT_EQ(rejected.retry_after_ms, 70u);

  quotas.Release("t", 60);
  EXPECT_TRUE(quotas.Admit("t", 50).admitted());
  quotas.Release("t", 50);

  // Resident charges shrink what requests may use.
  quotas.ChargeResident("t", 90);
  EXPECT_EQ(quotas.ResidentBytes("t"), 90u);
  EXPECT_EQ(quotas.Admit("t", 20).status, WireStatus::kOverQuota);
  EXPECT_TRUE(quotas.Admit("t", 10).admitted());
  quotas.Release("t", 10);
  quotas.ChargeResident("t", -90);
  EXPECT_EQ(quotas.ResidentBytes("t"), 0u);

  // Tenants are independent.
  EXPECT_TRUE(quotas.Admit("other", 100).admitted());
}

TEST(TenantQuotas, ByteRejectionDoesNotBurnARateToken) {
  TenantQuotaOptions defaults;
  defaults.requests_per_second = 10.0;
  defaults.burst = 1.0;
  defaults.max_outstanding_bytes = 10;
  TenantQuotas quotas(defaults, [] { return std::uint64_t{0}; });

  EXPECT_EQ(quotas.Admit("t", 50).status, WireStatus::kOverQuota);
  // The bucket still has its token: a request that fits passes.
  EXPECT_TRUE(quotas.Admit("t", 5).admitted());
}

}  // namespace
}  // namespace net
}  // namespace blinkml
