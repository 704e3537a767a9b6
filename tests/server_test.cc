// The TCP serving front end (DESIGN.md §10): wire codec round trips, the
// loopback replay pin (a scenario driven through the TCP server is
// bit-identical to driving the broker in-process), pipelined-run coalescing
// equivalence, wire batch-op parity, malformed-frame handling, concurrent
// clients (the TSan target), the spin-then-block waiting rule at both ends,
// client deadlines, and graceful drain.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/check.h"

#include "broker/broker.h"
#include "broker/driver.h"
#include "broker/snapshot.h"
#include "market/regret_tracker.h"
#include "market/round.h"
#include "rng/rng.h"
#include "scenario/scenario_spec.h"
#include "scenario/stream_factory.h"
#include "server/client.h"
#include "server/net.h"
#include "server/server.h"
#include "server/wire.h"

namespace pdm::server {
namespace {

using broker::Broker;
using broker::FeedbackRequest;
using broker::HandleRequest;
using broker::ProductHandle;
using broker::Quote;
using broker::SessionSnapshot;
using scenario::ScenarioSpec;
using scenario::StreamFactory;

ScenarioSpec LinearSpec(const std::string& name, int n, int64_t rounds,
                        const std::string& mechanism, uint64_t workload_seed) {
  ScenarioSpec spec;
  spec.name = name;
  spec.family = "servertest";
  spec.stream = scenario::StreamKind::kLinear;
  spec.mechanism = mechanism;
  spec.n = n;
  spec.rounds = rounds;
  spec.delta = 0.01;
  spec.linear.num_owners = 200;
  spec.workload_seed = workload_seed;
  spec.sim_seed = 99;
  return spec;
}

void OpenSpec(Broker* broker, StreamFactory* factory, const ScenarioSpec& spec) {
  ASSERT_TRUE(broker->OpenSession(spec.name, spec, factory->Prepare(spec)).ok());
}

std::string SnapshotBytes(const Broker& broker, const std::string& product) {
  SessionSnapshot snap;
  Status s = broker.Snapshot(product, &snap);
  PDM_CHECK(s.ok());
  return broker::EncodeSessionSnapshot(snap);
}

// ------------------------------------------------------------ wire codec

/// Lowercase hex of a byte string, so a golden mismatch prints readably.
std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

TEST(Wire, PrimitivesRoundTripBitExactly) {
  std::string bytes;
  ByteWriter w(&bytes);
  size_t frame = w.BeginLength();
  w.PutU8(0x7F);
  w.PutU32(0xDEADBEEFu);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutF64(-0.1);  // not exactly representable: the bits must survive
  w.PutF64(std::numeric_limits<double>::quiet_NaN());
  w.PutString("pdm/\xE2\x82\xAC");  // embedded UTF-8 stays raw bytes
  w.EndLength(frame);
  // The exact pdm.wire.v1 bytes: little-endian length prefix and integers,
  // raw IEEE-754 doubles, u32-length-prefixed string.
  EXPECT_EQ(Hex(bytes),
            "280000007fefbeaddeefcdab89674523019a9999999999b9bf000000000000f8"
            "7f0700000070646d2fe282ac");

  std::string_view payload;
  size_t next = 0;
  ASSERT_EQ(NextFrame(bytes, 0, &payload, &next), FrameResult::kFrame);
  EXPECT_EQ(next, bytes.size());

  ByteReader r(payload);
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  double f1, f2;
  std::string_view s;
  ASSERT_TRUE(r.GetU8(&u8));
  ASSERT_TRUE(r.GetU32(&u32));
  ASSERT_TRUE(r.GetU64(&u64));
  ASSERT_TRUE(r.GetF64(&f1));
  ASSERT_TRUE(r.GetF64(&f2));
  ASSERT_TRUE(r.GetString(&s));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u8, 0x7F);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(f1, -0.1);
  EXPECT_TRUE(std::isnan(f2));
  EXPECT_EQ(s, "pdm/\xE2\x82\xAC");

  // Truncated reads report failure instead of reading past the end.
  ByteReader truncated(payload.substr(0, 3));
  ASSERT_TRUE(truncated.GetU8(&u8));
  EXPECT_FALSE(truncated.GetU32(&u32));
}

TEST(Wire, FrameSplitHandlesPartialAndMalformed) {
  std::string bytes;
  ByteWriter w(&bytes);
  size_t frame = w.BeginLength();
  w.PutU64(42);
  w.EndLength(frame);

  std::string_view payload;
  size_t next = 0;
  // Every strict prefix is incomplete.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_EQ(NextFrame(std::string_view(bytes).substr(0, cut), 0, &payload, &next),
              FrameResult::kNeedMore);
  }
  ASSERT_EQ(NextFrame(bytes, 0, &payload, &next), FrameResult::kFrame);
  EXPECT_EQ(payload.size(), 8u);

  // A length prefix beyond the cap is a framing violation.
  std::string huge;
  ByteWriter hw(&huge);
  hw.PutU32(static_cast<uint32_t>(kMaxFramePayloadBytes + 1));
  EXPECT_EQ(NextFrame(huge, 0, &payload, &next), FrameResult::kMalformed);
}

// --------------------------------------------------- basic round trips

TEST(TcpServer, PingResolveAndErrorsRoundTrip) {
  StreamFactory factory;
  Broker broker;
  ScenarioSpec spec = LinearSpec("wire/basic", 6, 500, "reserve", 21);
  OpenSpec(&broker, &factory, spec);

  TcpServer server(&broker);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(client.Ping().ok());

  // Resolve over the wire must agree with the in-process directory.
  ProductHandle wire_handle, local_handle;
  ASSERT_TRUE(client.Resolve(spec.name, &wire_handle).ok());
  ASSERT_TRUE(broker.Resolve(spec.name, &local_handle).ok());
  EXPECT_EQ(wire_handle, local_handle);

  // Errors arrive as reconstructed Status with code AND message.
  Status missing = client.Resolve("no/such/product", &wire_handle);
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_FALSE(missing.message().empty());

  // A stale handle fails with NotFound end to end.
  Quote quote;
  std::vector<double> x(6, 0.1);
  ProductHandle stale{local_handle.index, local_handle.generation + 2};
  EXPECT_EQ(client.PostPrice(stale, x, 0.0, &quote).code(), StatusCode::kNotFound);
  EXPECT_EQ(quote.ticket, 0u);

  // A lone (not pipelined) frame is served as a run of one, but its error
  // still carries the broker's own message, not a coalesced-run summary.
  Status stale_status = client.PostPrice(stale, x, 0.0, &quote);
  EXPECT_EQ(stale_status.code(), StatusCode::kNotFound);
  EXPECT_EQ(stale_status.message(), "stale, closed, or foreign product handle");
  ASSERT_TRUE(client.PostPrice(local_handle, x, 0.0, &quote).ok());
  ASSERT_TRUE(client.Observe(quote.ticket, true).ok());
  Status resolved = client.Observe(quote.ticket, true);
  EXPECT_EQ(resolved.code(), StatusCode::kNotFound);
  EXPECT_EQ(resolved.message(), "product 'wire/basic': unknown or already-resolved ticket " +
                                    std::to_string(quote.ticket));

  // EstimateValue returns the exact bits the broker computes.
  ValueInterval wire_iv, local_iv;
  ASSERT_TRUE(client.EstimateValue(local_handle, x, &wire_iv).ok());
  ASSERT_TRUE(broker.EstimateValue(local_handle, x, &local_iv).ok());
  EXPECT_EQ(wire_iv.lower, local_iv.lower);
  EXPECT_EQ(wire_iv.upper, local_iv.upper);

  server.Stop();
  EXPECT_FALSE(server.running());
}

// ------------------------------------------------- the loopback replay pin

// The acceptance pin: a scenario replayed through the TCP server on
// loopback — same seeds, immediate ticketed feedback — produces the same
// quotes, accepts, and regret accounting as RunScenarioThroughBroker, and
// leaves the engine in the byte-identical state.
TEST(TcpServer, ScenarioThroughTcpIsBitIdenticalToInProcess) {
  const char* kMechanisms[] = {"pure", "reserve+uncertainty"};
  for (const char* mechanism : kMechanisms) {
    SCOPED_TRACE(mechanism);
    ScenarioSpec spec = LinearSpec(std::string("wire/replay/") + mechanism, 8,
                                   1500, mechanism, 33);

    // In-process reference.
    StreamFactory ref_factory;
    Broker ref_broker;
    broker::BrokerRunOutcome reference =
        broker::RunScenarioThroughBroker(spec, &ref_factory, &ref_broker);

    // The same spec through TCP.
    StreamFactory factory;
    Broker broker;
    OpenSpec(&broker, &factory, spec);
    TcpServer server(&broker);
    ASSERT_TRUE(server.Start().ok());
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    ProductHandle handle;
    ASSERT_TRUE(client.Resolve(spec.name, &handle).ok());

    // Driver loop, verbatim, with the driver's exact Rng lifecycle — just
    // with the broker calls replaced by wire calls.
    Rng rng(spec.sim_seed);
    std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
    stream->BindEngine(broker.FindEngine(spec.name));
    RegretTracker tracker(spec.series_stride);
    MarketRound round;
    Quote quote;
    PostedPrice posted;
    for (int64_t t = 0; t < spec.rounds; ++t) {
      stream->Next(&rng, &round);
      ASSERT_TRUE(client.PostPrice(handle, round.features, round.reserve, &quote).ok());
      bool accepted = !quote.certain_no_sale && quote.price <= round.value;
      ASSERT_TRUE(client.Observe(quote.ticket, accepted).ok());
      posted.price = quote.price;
      posted.exploratory = quote.exploratory;
      posted.certain_no_sale = quote.certain_no_sale;
      tracker.Observe(round, posted, accepted);
    }
    server.Stop();

    // Regret accounting: exact double equality, not tolerance.
    const RegretTracker& ref = reference.result.tracker;
    EXPECT_EQ(tracker.rounds(), ref.rounds());
    EXPECT_EQ(tracker.sales(), ref.sales());
    EXPECT_EQ(tracker.cumulative_regret(), ref.cumulative_regret());
    EXPECT_EQ(tracker.cumulative_revenue(), ref.cumulative_revenue());
    EXPECT_EQ(tracker.oracle_revenue(), ref.oracle_revenue());

    // Engine state: byte-identical snapshots.
    EXPECT_EQ(SnapshotBytes(broker, spec.name), SnapshotBytes(ref_broker, spec.name));
  }
}

// ------------------------------------------------------- coalescing

// Pipelined single-op frames are coalesced into batched broker calls —
// and that rewrite must be invisible: same quotes, in request order, and the
// same final engine state as the same requests issued sequentially. The
// second pass pauses 1 ms before every flush, so the event loop's spin
// window (DESIGN.md §10) closes each time and its blocking poll meets every
// run: nothing a client sees may change.
TEST(TcpServer, PipelinedRunsCoalesceAndMatchSequential) {
  ScenarioSpec spec = LinearSpec("wire/pipeline", 6, 4000, "reserve", 44);
  constexpr int kRounds = 120;
  constexpr int kBatch = 8;
  for (int pause_ms : {0, 1}) {
    SCOPED_TRACE(pause_ms);
    // Twin A: pipelined through TCP.
    StreamFactory factory_a;
    Broker broker_a;
    OpenSpec(&broker_a, &factory_a, spec);
    // Twin B: sequential in-process calls.
    StreamFactory factory_b;
    Broker broker_b;
    OpenSpec(&broker_b, &factory_b, spec);
    ProductHandle handle_b;
    ASSERT_TRUE(broker_b.Resolve(spec.name, &handle_b).ok());

    TcpServer server(&broker_a);
    ASSERT_TRUE(server.Start().ok());
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    ProductHandle handle_a;
    ASSERT_TRUE(client.Resolve(spec.name, &handle_a).ok());

    // Shared deterministic query sequence.
    Rng rng(spec.sim_seed);
    std::unique_ptr<QueryStream> stream = factory_a.CreateStream(spec, &rng);
    std::vector<MarketRound> rounds(kRounds);
    for (MarketRound& round : rounds) stream->Next(&rng, &round);

    const int64_t blocked_before = server.stats().waits_blocked;
    for (int base = 0; base < kRounds; base += kBatch) {
      // Pipeline a run of kBatch PostPrice frames in ONE flush.
      uint64_t ids[kBatch];
      for (int k = 0; k < kBatch; ++k) {
        const MarketRound& round = rounds[base + k];
        ids[k] = client.QueuePostPrice(handle_a, round.features, round.reserve);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(pause_ms));
      ASSERT_TRUE(client.Flush().ok());
      std::vector<Quote> wire_quotes(kBatch);
      for (int k = 0; k < kBatch; ++k) {
        Response resp;
        ASSERT_TRUE(client.ReadResponse(&resp).ok());
        ASSERT_TRUE(resp.status.ok());
        EXPECT_EQ(resp.id, ids[k]);
        wire_quotes[k] = resp.quote;
      }
      // Sequential twin must produce bit-identical quotes.
      for (int k = 0; k < kBatch; ++k) {
        const MarketRound& round = rounds[base + k];
        Quote seq_quote;
        ASSERT_TRUE(
            broker_b.PostPrice(handle_b, round.features, round.reserve, &seq_quote).ok());
        EXPECT_EQ(wire_quotes[k].ticket, seq_quote.ticket);
        EXPECT_EQ(wire_quotes[k].price, seq_quote.price);
        EXPECT_EQ(wire_quotes[k].exploratory, seq_quote.exploratory);
        EXPECT_EQ(wire_quotes[k].certain_no_sale, seq_quote.certain_no_sale);
      }
      // Feedback: a pipelined Observe run for A, sequential for B.
      for (int k = 0; k < kBatch; ++k) {
        const MarketRound& round = rounds[base + k];
        bool accepted =
            !wire_quotes[k].certain_no_sale && wire_quotes[k].price <= round.value;
        ids[k] = client.QueueObserve(wire_quotes[k].ticket, accepted);
        ASSERT_TRUE(broker_b.Observe(wire_quotes[k].ticket, accepted).ok());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(pause_ms));
      ASSERT_TRUE(client.Flush().ok());
      for (int k = 0; k < kBatch; ++k) {
        Response resp;
        ASSERT_TRUE(client.ReadResponse(&resp).ok());
        EXPECT_TRUE(resp.status.ok());
        EXPECT_EQ(resp.id, ids[k]);
      }
    }

    // The server must actually have taken the coalesced path.
    ServerStats stats = server.stats();
    EXPECT_GT(stats.coalesced_runs, 0);
    EXPECT_GT(stats.frames_coalesced, 0);
    if (pause_ms > 0) {
      // At least one blocking poll per pause; the first pause's may have
      // begun before the baseline was read.
      EXPECT_GE(stats.waits_blocked - blocked_before, 2 * kRounds / kBatch - 1);
    }
    // The memory-engine occupancy lives on Broker::Stats() (the duplicated
    // ServerStats block moved to the shared metric registry): one open,
    // resident, never-evicted session in one live slab slot.
    pdm::broker::BrokerStats occupancy = broker_a.Stats();
    EXPECT_EQ(occupancy.open_sessions, 1u);
    EXPECT_EQ(occupancy.resident_sessions, 1u);
    EXPECT_EQ(occupancy.evicted_sessions, 0u);
    EXPECT_EQ(occupancy.slab_live_slots, 1u);
    EXPECT_EQ(occupancy.slab_tombstoned_slots, 0u);
    EXPECT_EQ(occupancy.evictions, 0u);
    EXPECT_EQ(occupancy.fault_ins, 0u);
    EXPECT_EQ(occupancy.spill_bytes, 0u);
    server.Stop();

    EXPECT_EQ(SnapshotBytes(broker_a, spec.name), SnapshotBytes(broker_b, spec.name));
  }
}

// ------------------------------------------------------ wire batch ops

TEST(TcpServer, WireBatchOpsMirrorBrokerBatchSemantics) {
  ScenarioSpec spec = LinearSpec("wire/batch", 5, 2000, "uncertainty", 55);
  StreamFactory factory_a, factory_b;
  Broker broker_a, broker_b;
  OpenSpec(&broker_a, &factory_a, spec);
  OpenSpec(&broker_b, &factory_b, spec);
  ProductHandle handle_b;
  ASSERT_TRUE(broker_b.Resolve(spec.name, &handle_b).ok());

  TcpServer server(&broker_a);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ProductHandle handle_a;
  ASSERT_TRUE(client.Resolve(spec.name, &handle_a).ok());

  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory_a.CreateStream(spec, &rng);
  constexpr int kBatch = 6;
  std::vector<MarketRound> rounds(kBatch);
  for (MarketRound& round : rounds) stream->Next(&rng, &round);

  // Position 2 targets a dead handle: the batch must not abort, the item
  // must carry NotFound, and the returned Status is that first error.
  auto build = [&](ProductHandle good) {
    std::vector<HandleRequest> requests(kBatch);
    for (int k = 0; k < kBatch; ++k) {
      requests[k] = {good, rounds[k].features, rounds[k].reserve};
    }
    requests[2].handle = ProductHandle{good.index, good.generation + 2};
    return requests;
  };

  std::vector<Quote> wire_quotes(kBatch), local_quotes(kBatch);
  Status wire_status = client.PostPrices(build(handle_a), wire_quotes);
  Status local_status = broker_b.PostPrices(build(handle_b), local_quotes);
  EXPECT_EQ(wire_status.code(), local_status.code());
  EXPECT_EQ(wire_status.code(), StatusCode::kNotFound);
  for (int k = 0; k < kBatch; ++k) {
    EXPECT_EQ(wire_quotes[k].status, local_quotes[k].status) << "item " << k;
    EXPECT_EQ(wire_quotes[k].ticket, local_quotes[k].ticket) << "item " << k;
    EXPECT_EQ(wire_quotes[k].price, local_quotes[k].price) << "item " << k;
  }

  // Batched feedback with one duplicate: per-item codes must match too.
  std::vector<FeedbackRequest> feedback;
  for (int k = 0; k < kBatch; ++k) {
    if (wire_quotes[k].ticket != 0) feedback.push_back({wire_quotes[k].ticket, true});
  }
  feedback.push_back(feedback.front());  // duplicate → NotFound at that slot
  std::vector<StatusCode> wire_codes(feedback.size()), local_codes(feedback.size());
  wire_status = client.Observes(feedback, wire_codes);
  local_status = broker_b.Observes(feedback, local_codes);
  EXPECT_EQ(wire_status.code(), local_status.code());
  for (size_t k = 0; k < feedback.size(); ++k) {
    EXPECT_EQ(wire_codes[k], local_codes[k]) << "item " << k;
  }
  server.Stop();

  EXPECT_EQ(SnapshotBytes(broker_a, spec.name), SnapshotBytes(broker_b, spec.name));
}

// --------------------------------------------------- malformed traffic

TEST(TcpServer, UnknownOpcodeGetsErrorResponseAndConnectionSurvives) {
  Broker broker;
  TcpServer server(&broker);
  ASSERT_TRUE(server.Start().ok());

  UniqueFd fd;
  ASSERT_TRUE(ConnectTcp("127.0.0.1", server.port(), &fd).ok());
  std::string bytes;
  ByteWriter w(&bytes);
  size_t frame = w.BeginLength();
  PutRequestHeader(&w, static_cast<Opcode>(200), 7);
  w.EndLength(frame);
  ASSERT_EQ(::send(fd.get(), bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));

  // Expect a kInvalidArgument error response (id echoed), then liveness.
  std::string in;
  char chunk[512];
  std::string_view payload;
  size_t next = 0;
  for (;;) {
    if (NextFrame(in, 0, &payload, &next) == FrameResult::kFrame) break;
    ssize_t n = ::recv(fd.get(), chunk, sizeof chunk, 0);
    ASSERT_GT(n, 0);
    in.append(chunk, static_cast<size_t>(n));
  }
  ByteReader r(payload);
  uint8_t op, code;
  uint64_t id;
  ASSERT_TRUE(r.GetU8(&op) && r.GetU64(&id) && r.GetU8(&code));
  EXPECT_EQ(id, 7u);
  EXPECT_EQ(StatusCodeFromWire(code), StatusCode::kInvalidArgument);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.protocol_errors, 0);  // decodable header → answered, not dropped
  server.Stop();
}

TEST(TcpServer, FramingViolationsDropTheConnection) {
  Broker broker;
  TcpServer server(&broker);
  ASSERT_TRUE(server.Start().ok());

  struct Violation {
    const char* what;
    std::string bytes;
  };
  std::string oversized;
  {
    ByteWriter w(&oversized);
    w.PutU32(static_cast<uint32_t>(kMaxFramePayloadBytes + 1));
  }
  std::string short_header;
  {
    ByteWriter w(&short_header);
    size_t frame = w.BeginLength();
    w.PutU8(1);  // 1-byte payload: too short for opcode+id
    w.EndLength(frame);
  }
  const Violation kViolations[] = {{"oversized length prefix", oversized},
                                   {"payload shorter than header", short_header}};
  int64_t errors_before = server.stats().protocol_errors;
  for (const Violation& violation : kViolations) {
    SCOPED_TRACE(violation.what);
    UniqueFd fd;
    ASSERT_TRUE(ConnectTcp("127.0.0.1", server.port(), &fd).ok());
    ASSERT_EQ(::send(fd.get(), violation.bytes.data(), violation.bytes.size(), 0),
              static_cast<ssize_t>(violation.bytes.size()));
    // The server sends a final connection-level error frame (opcode 0,
    // id 0, InvalidArgument — DESIGN.md §14) and then closes on us.
    std::string in;
    char chunk[512];
    std::string_view payload;
    size_t next = 0;
    for (;;) {
      if (NextFrame(in, 0, &payload, &next) == FrameResult::kFrame) break;
      ssize_t n = ::recv(fd.get(), chunk, sizeof chunk, 0);
      ASSERT_GT(n, 0);
      in.append(chunk, static_cast<size_t>(n));
    }
    ByteReader r(payload);
    uint8_t op, code;
    uint64_t id;
    ASSERT_TRUE(r.GetU8(&op) && r.GetU64(&id) && r.GetU8(&code));
    EXPECT_EQ(op, 0u);
    EXPECT_EQ(id, 0u);
    EXPECT_EQ(StatusCodeFromWire(code), StatusCode::kInvalidArgument);
    // ...then EOF: the connection is still dropped, just not silently.
    in.erase(0, next);
    ssize_t n;
    while ((n = ::recv(fd.get(), chunk, sizeof chunk, 0)) > 0) {
    }
    EXPECT_EQ(n, 0);
  }
  EXPECT_EQ(server.stats().protocol_errors, errors_before + 2);
  server.Stop();
}

// ------------------------------------------------- concurrency (TSan)

// Several clients over real sockets against one server, each hammering its
// own product, with Stop() racing the tail of the traffic — the TSan
// target for the server event loop and its stats counters.
TEST(TcpServer, ConcurrentClientsServeCleanly) {
  constexpr int kClients = 4;
  constexpr int kRounds = 150;
  StreamFactory factory;
  Broker broker;
  std::vector<ScenarioSpec> specs;
  for (int c = 0; c < kClients; ++c) {
    specs.push_back(LinearSpec("wire/mt/" + std::to_string(c), 4, 2000,
                               c % 2 == 0 ? "pure" : "reserve", 60 + c));
    OpenSpec(&broker, &factory, specs.back());
  }
  TcpServer server(&broker);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::vector<MarketRound>> rings(kClients);
  for (int c = 0; c < kClients; ++c) {
    Rng rng(specs[c].sim_seed);
    std::unique_ptr<QueryStream> stream = factory.CreateStream(specs[c], &rng);
    rings[c].resize(64);
    for (MarketRound& round : rings[c]) stream->Next(&rng, &round);
  }

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      ProductHandle handle;
      if (!client.Resolve(specs[c].name, &handle).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int t = 0; t < kRounds; ++t) {
        const MarketRound& round = rings[c][t % rings[c].size()];
        Quote quote;
        if (!client.PostPrice(handle, round.features, round.reserve, &quote).ok() ||
            !client.Observe(quote.ticket, quote.price <= round.value).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, kClients);
  EXPECT_GE(stats.frames_served, int64_t{kClients} * (1 + 2 * kRounds));
  server.Stop();

  for (int c = 0; c < kClients; ++c) {
    broker::SessionInfo info;
    ASSERT_TRUE(broker.GetSessionInfo(specs[c].name, &info).ok());
    EXPECT_EQ(info.pending, 0) << specs[c].name;
    EXPECT_EQ(info.quotes_issued, kRounds) << specs[c].name;
  }
}

// ------------------------------------------------------ the waiting rule

// Both ends spin for kSpinWindow before they block (DESIGN.md §10). The
// client's fallback to its blocking call is pinned here, the server's by the
// paused pass of PipelinedRunsCoalesceAndMatchSequential.

TEST(TcpServer, ClientSpinsThenBlocksForALateReply) {
  // A raw peer answers each Ping 2 ms late, far past the spin window: the
  // client's wait must fall through to its blocking call (recv without a
  // deadline, poll under one) and still read its own response.
  UniqueFd listener;
  uint16_t port = 0;
  ASSERT_TRUE(ListenTcp("127.0.0.1", 0, &listener, &port).ok());
  const int kDeadlines[] = {0, 1000};
  std::thread peer([&] {
    for (size_t c = 0; c < std::size(kDeadlines); ++c) {
      UniqueFd conn(::accept(listener.get(), nullptr, nullptr));
      if (!conn.valid()) return;
      std::string in;
      char chunk[512];
      std::string_view payload;
      size_t next = 0;
      while (NextFrame(in, 0, &payload, &next) != FrameResult::kFrame) {
        ssize_t n = ::recv(conn.get(), chunk, sizeof chunk, 0);
        if (n <= 0) return;
        in.append(chunk, static_cast<size_t>(n));
      }
      ByteReader r(payload);
      uint8_t op = 0;
      uint64_t id = 0;
      r.GetU8(&op);
      r.GetU64(&id);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      std::string out;
      ByteWriter w(&out);
      size_t frame = w.BeginLength();
      PutResponseHeader(&w, static_cast<Opcode>(op), id, StatusCode::kOk);
      w.EndLength(frame);
      (void)::send(conn.get(), out.data(), out.size(), MSG_NOSIGNAL);
    }
  });

  for (int deadline_ms : kDeadlines) {
    SCOPED_TRACE(deadline_ms);
    ClientConfig config;
    config.deadline_ms = deadline_ms;
    Client client(config);
    ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
    const uint64_t id = client.QueuePing();
    ASSERT_TRUE(client.Flush().ok());
    Response resp;
    ASSERT_TRUE(client.ReadResponse(&resp).ok());
    EXPECT_EQ(resp.op, Opcode::kPing);
    EXPECT_EQ(resp.id, id);
    EXPECT_TRUE(resp.status.ok());
    EXPECT_EQ(client.waits_blocked(), 1);
    EXPECT_EQ(client.waits_spun(), 0);
  }
  peer.join();
}

TEST(TcpServer, PipelinedClosedLoopSpinsAtBothEnds) {
  // Back-to-back pipelined ticks keep each end's next frame inside the
  // other's spin window: both ends must take waits that end while spinning,
  // and the scrape family must carry the server's. The loop runs until both
  // have, within a cap that a slow sanitizer build still meets.
  ScenarioSpec spec = LinearSpec("wire/spin", 6, 4000, "pure", 48);
  constexpr int kMaxTicks = 5000;
  constexpr int kBatch = 8;
  StreamFactory factory;
  Broker broker;
  OpenSpec(&broker, &factory, spec);
  TcpServer server(&broker);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ProductHandle handle;
  ASSERT_TRUE(client.Resolve(spec.name, &handle).ok());

  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  std::vector<MarketRound> ring(64);
  for (MarketRound& round : ring) stream->Next(&rng, &round);
  for (int t = 0;
       t < kMaxTicks && (client.waits_spun() == 0 || server.stats().waits_spun == 0);
       ++t) {
    for (int k = 0; k < kBatch; ++k) {
      const MarketRound& round = ring[(t * kBatch + k) % ring.size()];
      client.QueuePostPrice(handle, round.features, round.reserve);
    }
    ASSERT_TRUE(client.Flush().ok());
    uint64_t tickets[kBatch];
    for (uint64_t& ticket : tickets) {
      Response resp;
      ASSERT_TRUE(client.ReadResponse(&resp).ok());
      ASSERT_TRUE(resp.status.ok());
      ticket = resp.quote.ticket;
    }
    for (uint64_t ticket : tickets) client.QueueObserve(ticket, false);
    ASSERT_TRUE(client.Flush().ok());
    for (int k = 0; k < kBatch; ++k) {
      Response resp;
      ASSERT_TRUE(client.ReadResponse(&resp).ok());
      ASSERT_TRUE(resp.status.ok());
    }
  }
  EXPECT_GT(client.waits_spun(), 0);
  EXPECT_GT(server.stats().waits_spun, 0);

  metrics::MetricsDump dump;
  ASSERT_TRUE(client.GetMetrics(&dump).ok());
  const metrics::DumpInstrument* spun =
      dump.Find("pdm_server_waits_total", "outcome", "spun");
  const metrics::DumpInstrument* blocked =
      dump.Find("pdm_server_waits_total", "outcome", "blocked");
  ASSERT_NE(spun, nullptr);
  ASSERT_NE(blocked, nullptr);
  EXPECT_GT(spun->counter, 0u);
  server.Stop();
}

TEST(TcpServer, OneMillisecondDeadlinePingSucceeds) {
  // A deadline under 1 ms away used to truncate to a 0 ms poll and expire
  // without waiting, so no 1 ms call ever succeeded.
  Broker broker;
  TcpServer server(&broker);
  ASSERT_TRUE(server.Start().ok());
  ClientConfig config;
  config.deadline_ms = 1;
  Client client(config);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  constexpr int kPings = 20;
  int answered = 0;
  for (int i = 0; i < kPings; ++i) {
    // A Ping may still miss 1 ms on a loaded host, but only after waiting
    // it out; the next Ping redials the dropped connection.
    const auto before = std::chrono::steady_clock::now();
    Status s = client.Ping();
    if (s.ok()) {
      ++answered;
      continue;
    }
    EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();
    EXPECT_GE(std::chrono::steady_clock::now() - before, std::chrono::milliseconds(1));
  }
  EXPECT_GT(answered, kPings / 2);
  server.Stop();
}

// --------------------------------------------------------- observability

// Blocking loopback HTTP GET against the scrape listener; returns the whole
// response (headers + body). The scrape endpoint speaks HTTP/1.0 with
// Connection: close, so EOF delimits the document.
std::string HttpGet(uint16_t port) {
  UniqueFd fd;
  PDM_CHECK(ConnectTcp("127.0.0.1", port, &fd).ok());
  const char request[] = "GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n";
  PDM_CHECK(::send(fd.get(), request, sizeof(request) - 1, 0) ==
            static_cast<ssize_t>(sizeof(request) - 1));
  std::string response;
  char chunk[4096];
  for (;;) {
    ssize_t n = ::recv(fd.get(), chunk, sizeof chunk, 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  return response;
}

/// The numeric value of the unlabeled series `name` in an exposition
/// document, or -1 when absent.
double SeriesValue(const std::string& text, const std::string& name) {
  std::string needle = "\n" + name + " ";
  size_t at = text.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

TEST(TcpServer, GetMetricsOpcodeRoundTrip) {
  // One registry behind the broker AND the server: the dump fetched over
  // the wire carries both layers' instruments, and the broker counters
  // reconcile exactly with what this client did.
  StreamFactory factory;
  metrics::MetricRegistry registry;
  broker::BrokerConfig broker_config;
  broker_config.metrics = &registry;
  Broker broker(broker_config);
  ScenarioSpec spec = LinearSpec("wire/getmetrics", 5, 2000, "reserve", 71);
  OpenSpec(&broker, &factory, spec);

  ServerConfig config;
  config.metrics = &registry;
  TcpServer server(&broker, config);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ProductHandle handle;
  ASSERT_TRUE(client.Resolve(spec.name, &handle).ok());

  constexpr int kRounds = 50;
  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  stream->BindEngine(broker.FindEngine(spec.name));
  MarketRound round;
  Quote quote;
  uint64_t accepts = 0;
  for (int t = 0; t < kRounds; ++t) {
    stream->Next(&rng, &round);
    ASSERT_TRUE(client.PostPrice(handle, round.features, round.reserve, &quote).ok());
    bool accepted = !quote.certain_no_sale && quote.price <= round.value;
    accepts += accepted ? 1 : 0;
    ASSERT_TRUE(client.Observe(quote.ticket, accepted).ok());
  }

  metrics::MetricsDump dump;
  ASSERT_TRUE(client.GetMetrics(&dump).ok());
  EXPECT_EQ(dump.CounterValue("pdm_broker_quotes_total"),
            static_cast<uint64_t>(kRounds));
  EXPECT_EQ(dump.CounterValue("pdm_broker_accepts_total"), accepts);
  EXPECT_EQ(dump.CounterValue("pdm_broker_rejects_total"), kRounds - accepts);
  const metrics::DumpInstrument* resident =
      dump.Find("pdm_broker_resident_sessions");
  ASSERT_NE(resident, nullptr);
  EXPECT_DOUBLE_EQ(resident->gauge, 1.0);

  // Server-side instruments ride in the same dump, labeled by opcode. The
  // GetMetrics frame itself was counted before the dump was encoded.
  const metrics::DumpInstrument* posts =
      dump.Find("pdm_server_frames_total", "opcode", "post_price");
  ASSERT_NE(posts, nullptr);
  EXPECT_EQ(posts->counter, static_cast<uint64_t>(kRounds));
  const metrics::DumpInstrument* gets =
      dump.Find("pdm_server_frames_total", "opcode", "get_metrics");
  ASSERT_NE(gets, nullptr);
  EXPECT_EQ(gets->counter, 1u);
  const metrics::DumpInstrument* latency = dump.Find("pdm_server_request_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->hist_count, 0);
  server.Stop();
}

TEST(TcpServer, HttpScrapeDuringLoadReconcilesWithClientTally) {
  // The Prometheus endpoint on the second listen port, scraped WHILE wire
  // traffic is in flight on the first: mid-load scrapes must parse and stay
  // monotone, and the post-load scrape must agree exactly with the
  // client-side tally — the same reconciliation CI's check_metrics.py does.
  StreamFactory factory;
  metrics::MetricRegistry registry;
  broker::BrokerConfig broker_config;
  broker_config.metrics = &registry;
  Broker broker(broker_config);
  ScenarioSpec spec = LinearSpec("wire/scrape", 5, 4000, "reserve+uncertainty", 83);
  OpenSpec(&broker, &factory, spec);

  ServerConfig config;
  config.metrics = &registry;
  config.metrics_port = 0;  // ephemeral
  TcpServer server(&broker, config);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.metrics_port(), 0);

  constexpr int kRounds = 400;
  std::atomic<uint64_t> tally_accepts{0};
  std::atomic<bool> load_done{false};
  std::thread load([&] {
    // Signal completion on every exit path so the scrape loop terminates
    // even if an assertion bails out of the lambda early.
    struct DoneGuard {
      std::atomic<bool>* flag;
      ~DoneGuard() { flag->store(true, std::memory_order_release); }
    } guard{&load_done};
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    ProductHandle handle;
    ASSERT_TRUE(client.Resolve(spec.name, &handle).ok());
    Rng rng(spec.sim_seed);
    std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
    stream->BindEngine(broker.FindEngine(spec.name));
    MarketRound round;
    Quote quote;
    uint64_t accepts = 0;
    for (int t = 0; t < kRounds; ++t) {
      stream->Next(&rng, &round);
      ASSERT_TRUE(
          client.PostPrice(handle, round.features, round.reserve, &quote).ok());
      bool accepted = !quote.certain_no_sale && quote.price <= round.value;
      accepts += accepted ? 1 : 0;
      ASSERT_TRUE(client.Observe(quote.ticket, accepted).ok());
    }
    tally_accepts.store(accepts, std::memory_order_release);
  });

  // Concurrent scrapes: every document parses, quotes_total is monotone.
  // At least one scrape happens even if the load outruns this loop.
  double last_quotes = 0.0;
  int scrapes = 0;
  do {
    std::string response = HttpGet(server.metrics_port());
    ASSERT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
    ASSERT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
    double quotes = SeriesValue(response, "pdm_broker_quotes_total");
    ASSERT_GE(quotes, last_quotes);
    last_quotes = quotes;
    ++scrapes;
  } while (!load_done.load(std::memory_order_acquire));
  load.join();
  EXPECT_GT(scrapes, 0);

  // Quiesced: the scrape agrees exactly with what the client measured.
  std::string response = HttpGet(server.metrics_port());
  EXPECT_EQ(SeriesValue(response, "pdm_broker_quotes_total"), kRounds);
  EXPECT_EQ(SeriesValue(response, "pdm_broker_accepts_total"),
            static_cast<double>(tally_accepts.load()));
  EXPECT_EQ(SeriesValue(response, "pdm_broker_rejects_total"),
            static_cast<double>(kRounds - tally_accepts.load()));
  // The gauge counts the scrape connection rendering this very document (and
  // possibly the not-yet-reaped wire client): live, small, never negative.
  EXPECT_GE(SeriesValue(response, "pdm_server_active_connections"), 1.0);
  EXPECT_LE(SeriesValue(response, "pdm_server_active_connections"), 2.0);

  // Scrape connections are not wire connections: exactly one client counted.
  metrics::MetricsDump dump;
  ASSERT_TRUE(
      metrics::DecodeMetricsDump(registry.EncodeDump(), &dump).ok());
  EXPECT_EQ(dump.CounterValue("pdm_server_connections_total"), 1u);
  server.Stop();
}

// ------------------------------------------------------ graceful drain

TEST(TcpServer, StopDrainsBufferedRequestsBeforeClosing) {
  Broker broker;
  TcpServer server(&broker);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  constexpr int kPings = 100;
  for (int i = 0; i < kPings; ++i) client.QueuePing();
  ASSERT_TRUE(client.Flush().ok());

  // Wait until the server has *served* the frames (responses queued or
  // flushed), then stop. Drain must deliver every response.
  for (int spin = 0; spin < 2000 && server.stats().frames_served < kPings; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.stats().frames_served, kPings);
  server.Stop();
  EXPECT_FALSE(server.running());

  for (int i = 0; i < kPings; ++i) {
    Response resp;
    ASSERT_TRUE(client.ReadResponse(&resp).ok()) << "response " << i;
    EXPECT_TRUE(resp.status.ok());
  }
  // After the drain the connection is closed server-side.
  Response resp;
  EXPECT_FALSE(client.ReadResponse(&resp).ok());

  // Stop is idempotent, and a stopped server can be probed safely.
  server.Stop();
}

}  // namespace
}  // namespace pdm::server
