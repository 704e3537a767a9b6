// Fault-tolerance suite (DESIGN.md §14): the deterministic fault injector,
// the checksummed pdm.snap spill envelope, crash-consistent spill
// durability (quarantine, startup recovery, orphan sweeps), server overload
// shedding and idle reaping, and client deadline/retry semantics. The
// process-kill drill itself lives in CI (tools/check_recovery.py); this file
// pins every failure-path contract the drill relies on.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "broker/session.h"
#include "broker/snapshot.h"
#include "broker/spill_store.h"
#include "common/byte_codec.h"
#include "common/crc32.h"
#include "common/fault.h"
#include "common/status.h"
#include "metrics/metrics.h"
#include "scenario/scenario_registry.h"
#include "scenario/stream_factory.h"
#include "server/client.h"
#include "server/net.h"
#include "server/server.h"
#include "server/wire.h"

namespace pdm::broker {
namespace {

using fault::FaultInjector;
using scenario::ScenarioSpec;
using scenario::StreamFactory;
using scenario::WorkloadInfo;

/// Every test touching the process-global injector scopes itself with this
/// guard: a leaked armed site would inject faults into unrelated tests.
struct FaultGuard {
  FaultGuard() { FaultInjector::Global().Reset(); }
  ~FaultGuard() { FaultInjector::Global().Reset(); }
};

ScenarioSpec LinearSpec(const std::string& name, int n, int64_t rounds,
                        const std::string& mechanism, uint64_t workload_seed) {
  ScenarioSpec spec;
  spec.name = name;
  spec.family = "chaostest";
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

/// Fresh spill directory for one test (wiped so reruns start clean).
std::string ChaosDir(const std::string& tag) {
  std::string dir = testing::TempDir() + "/pdm_chaos_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Overwrites bytes in place, as a disk fault would.
void PatchFileBytes(const std::string& path, size_t offset, std::string_view bytes) {
  std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
  io.seekp(static_cast<std::streamoff>(offset));
  io.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One live (not tombstoned) spill record found on disk.
struct LiveSpill {
  std::string path;  // its pack file
  size_t offset = 0;
  std::string bytes;  // its pdm.snap envelope
};

/// Every live record in `dir`'s `*.snap` packs, by the product inside it.
/// Records that do not decode are skipped.
std::map<std::string, LiveSpill> LiveSpills(const std::string& dir) {
  std::map<std::string, LiveSpill> live;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".snap") continue;
    const std::string path = entry.path().string();
    const std::string bytes = ReadFileBytes(path);
    WalkPack(bytes, [&](const PackEntry& record) {
      if (record.tombstone) return;
      const std::string envelope = bytes.substr(record.offset, record.size);
      SessionSnapshot snap;
      if (!DecodeSessionSnapshot(envelope, &snap).ok()) return;
      live[snap.product] = LiveSpill{path, record.offset, envelope};
    });
  }
  return live;
}

/// Files in `dir` whose names end in `suffix`.
size_t CountFiles(const std::string& dir, std::string_view suffix) {
  size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().ends_with(suffix)) ++count;
  }
  return count;
}

/// Drives `rounds` priced rounds with immediate feedback on one product.
void DriveRounds(Broker* broker, StreamFactory* factory, const ScenarioSpec& spec,
                 const std::string& product, int rounds) {
  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory->CreateStream(spec, &rng);
  MarketRound round;
  for (int i = 0; i < rounds; ++i) {
    stream->Next(&rng, &round);
    Quote quote;
    ASSERT_TRUE(
        broker->PostPrice({product, round.features, round.reserve}, &quote).ok());
    ASSERT_TRUE(broker->Observe(quote.ticket, quote.price <= round.value).ok());
  }
}

// --------------------------------------------------- fault injector

TEST(FaultInjectorTest, DisarmedIsInertAndArmingFires) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  inj.SetProbability("chaos.site", 1.0);
  EXPECT_FALSE(fault::ShouldFail("chaos.site"));  // disarmed: never fires
  EXPECT_EQ(inj.fires("chaos.site"), 0u);

  inj.Arm(7);
  EXPECT_TRUE(fault::ShouldFail("chaos.site"));
  EXPECT_TRUE(fault::ShouldFail("chaos.site"));
  EXPECT_EQ(inj.hits("chaos.site"), 2u);
  EXPECT_EQ(inj.fires("chaos.site"), 2u);
  EXPECT_FALSE(fault::ShouldFail("chaos.other"));  // unconfigured site misses

  inj.Disarm();
  EXPECT_FALSE(fault::ShouldFail("chaos.site"));
  inj.Reset();
  EXPECT_EQ(inj.hits("chaos.site"), 0u);
}

TEST(FaultInjectorTest, ScriptedTriggersFireOnExactHits) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  inj.TriggerOnHit("chaos.step", 2);
  inj.TriggerOnHit("chaos.step", 4);
  inj.Arm(1);
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(fault::ShouldFail("chaos.step"));
  EXPECT_EQ(fired, (std::vector<bool>{false, true, false, true, false, false}));
  EXPECT_EQ(inj.hits("chaos.step"), 6u);
  EXPECT_EQ(inj.fires("chaos.step"), 2u);
}

TEST(FaultInjectorTest, HooksRunOnEveryArmedHitBeforeTheDecision) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  std::vector<uint64_t> seen;  // the site's hit count as each hook call saw it
  inj.SetHook("chaos.hooked", [&] { seen.push_back(inj.hits("chaos.hooked")); });
  inj.TriggerOnHit("chaos.hooked", 2);
  EXPECT_FALSE(fault::ShouldFail("chaos.hooked"));  // disarmed: no hook either
  inj.Arm(1);
  EXPECT_FALSE(fault::ShouldFail("chaos.hooked"));
  EXPECT_TRUE(fault::ShouldFail("chaos.hooked"));
  EXPECT_EQ(seen, (std::vector<uint64_t>{0, 1}));
  inj.Reset();
  inj.Arm(1);
  EXPECT_FALSE(fault::ShouldFail("chaos.hooked"));  // Reset dropped the hook
  EXPECT_EQ(seen.size(), 2u);
}

TEST(FaultInjectorTest, SeededProbabilityStreamIsReproducible) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  auto run = [&] {
    inj.Reset();
    inj.SetProbability("chaos.coin", 0.5);
    inj.Arm(42);
    std::vector<bool> pattern;
    for (int i = 0; i < 64; ++i) pattern.push_back(fault::ShouldFail("chaos.coin"));
    return pattern;
  };
  std::vector<bool> first = run();
  std::vector<bool> second = run();
  EXPECT_EQ(first, second);
  // A fair-ish coin: both outcomes appear (the stream is not stuck).
  EXPECT_GT(std::count(first.begin(), first.end(), true), 0);
  EXPECT_GT(std::count(first.begin(), first.end(), false), 0);
}

TEST(FaultInjectorTest, ConfigureParsesSpecAndRejectsMalformed) {
  FaultGuard guard;
  FaultInjector& inj = FaultInjector::Global();
  ASSERT_TRUE(inj.Configure("seed=7,chaos.cfg=1.0,chaos.nth@3").ok());
  EXPECT_EQ(inj.Configure("chaos.cfg=not-a-number").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(inj.Configure("chaos.cfg=1.5").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(inj.Configure("chaos.nth@zero").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(inj.Configure("=0.5").code(), StatusCode::kInvalidArgument);
  // The rejected specs left the original configuration intact.
  inj.Arm();
  EXPECT_TRUE(fault::ShouldFail("chaos.cfg"));
  EXPECT_FALSE(fault::ShouldFail("chaos.nth"));
  EXPECT_FALSE(fault::ShouldFail("chaos.nth"));
  EXPECT_TRUE(fault::ShouldFail("chaos.nth"));  // third hit
}

// ---------------------------------------------------- pdm.snap envelope

class SnapV2Test : public testing::Test {
 protected:
  /// A realistic snapshot: engine knowledge, counters, pending tickets.
  SessionSnapshot MakeSnapshot() {
    StreamFactory factory;
    ScenarioSpec spec = LinearSpec("chaos/snap", 6, 500, "reserve", 11);
    Broker broker;
    auto open = broker.OpenSession(spec.name, spec, factory.Prepare(spec));
    PDM_CHECK(open.ok());
    Rng rng(spec.sim_seed);
    std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
    MarketRound round;
    for (int i = 0; i < 40; ++i) {
      stream->Next(&rng, &round);
      Quote quote;
      PDM_CHECK(broker.PostPrice({spec.name, round.features, round.reserve}, &quote)
                    .ok());
      if (i % 3 != 0) PDM_CHECK(broker.Observe(quote.ticket, i % 2 == 0).ok());
    }
    SessionSnapshot snap;
    PDM_CHECK(broker.Snapshot(spec.name, &snap).ok());
    return snap;
  }
};

TEST_F(SnapV2Test, RoundTripsAndRejectsABareBody) {
  SessionSnapshot snap = MakeSnapshot();
  const std::string bytes = EncodeSessionSnapshot(snap);
  ASSERT_EQ(bytes.substr(0, 8), "PDMSNAP2");

  SessionSnapshot decoded;
  ASSERT_TRUE(DecodeSessionSnapshot(bytes, &decoded).ok());
  // Decode → re-encode is byte-identical.
  EXPECT_EQ(EncodeSessionSnapshot(decoded), bytes);
  EXPECT_EQ(decoded.pending.size(), snap.pending.size());

  // The body without its envelope (magic+version+size header, CRC trailer)
  // is the pre-envelope PDMSNAP1 layout, which is no longer a document.
  const std::string body = bytes.substr(16, bytes.size() - 20);
  ASSERT_EQ(body.substr(0, 8), "PDMSNAP1");
  SessionSnapshot out;
  EXPECT_EQ(DecodeSessionSnapshot(body, &out).code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapV2Test, EveryTruncationPointRejectsWithoutCrashing) {
  const std::string v2 = EncodeSessionSnapshot(MakeSnapshot());
  for (size_t cut = 0; cut < v2.size(); ++cut) {
    SessionSnapshot out;
    Status s = DecodeSessionSnapshot(std::string_view(v2).substr(0, cut), &out);
    ASSERT_FALSE(s.ok()) << "decoded a " << cut << "-byte truncation";
    if (cut >= 8) {
      // Magic intact: the envelope itself reports the damage as DataLoss.
      EXPECT_EQ(s.code(), StatusCode::kDataLoss) << "cut at " << cut;
    }
  }
}

TEST_F(SnapV2Test, EveryFlippedByteRejects) {
  const std::string v2 = EncodeSessionSnapshot(MakeSnapshot());
  for (size_t at = 0; at < v2.size(); ++at) {
    std::string damaged = v2;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x40);
    SessionSnapshot out;
    Status s = DecodeSessionSnapshot(damaged, &out);
    ASSERT_FALSE(s.ok()) << "decoded with byte " << at << " flipped";
    if (at >= 12) {
      // Size, body, or CRC damage → DataLoss (bytes 0..7 are a bad magic and
      // 8..11 an unsupported version, both InvalidArgument).
      EXPECT_EQ(s.code(), StatusCode::kDataLoss) << "flip at " << at;
    }
  }
}

TEST_F(SnapV2Test, DamagedBodyInsideAnIntactEnvelopeIsInvalidArgument) {
  // Re-seal a damaged body in a fresh envelope (right size, right CRC): the
  // envelope checks pass, so the body parser alone must reject it.
  const std::string bytes = EncodeSessionSnapshot(MakeSnapshot());
  const std::string body = bytes.substr(16, bytes.size() - 20);
  auto seal = [&bytes](std::string_view damaged) {
    std::string out = bytes.substr(0, 12);  // magic + version
    ByteWriter w(&out);
    const size_t size = w.BeginLength();
    w.PutBytes(damaged.data(), damaged.size());
    w.PutU32(Crc32(w.EndLength(size)));
    return out;
  };
  ASSERT_EQ(seal(body), bytes);
  for (size_t cut = 0; cut < body.size(); ++cut) {
    SessionSnapshot out;
    EXPECT_EQ(DecodeSessionSnapshot(seal(std::string_view(body).substr(0, cut)), &out)
                  .code(),
              StatusCode::kInvalidArgument)
        << "body cut at " << cut;
  }
  SessionSnapshot out;
  EXPECT_EQ(DecodeSessionSnapshot(seal(body + "x"), &out).code(),
            StatusCode::kInvalidArgument);  // trailing byte
}

// --------------------------------------------- spill durability + recovery

TEST(BrokerChaosTest, EvictionSpillsV2AndCorruptionQuarantinesWithDataLoss) {
  FaultGuard guard;
  StreamFactory factory;
  metrics::MetricRegistry registry;
  ScenarioSpec spec = LinearSpec("chaos/corrupt", 6, 2000, "reserve", 21);
  WorkloadInfo info = factory.Prepare(spec);
  BrokerConfig config;
  config.spill_dir = ChaosDir("corrupt");
  config.metrics = &registry;
  Broker broker(config);
  ASSERT_TRUE(broker.OpenSession("chaos/p0", spec, info).ok());
  ASSERT_TRUE(broker.OpenSession("chaos/p1", spec, info).ok());
  DriveRounds(&broker, &factory, spec, "chaos/p0", 20);
  DriveRounds(&broker, &factory, spec, "chaos/p1", 20);

  ASSERT_EQ(broker.EvictIdleSessions(0), 2u);
  // One wave, one pack, two enveloped records.
  std::map<std::string, LiveSpill> spills = LiveSpills(config.spill_dir);
  ASSERT_EQ(spills.size(), 2u);
  const LiveSpill spill0 = spills["chaos/p0"];
  EXPECT_EQ(spill0.path, spills["chaos/p1"].path);
  EXPECT_EQ(CountFiles(config.spill_dir, ".snap"), 1u);
  ASSERT_EQ(spill0.bytes.substr(0, 8), "PDMSNAP2");  // spills are enveloped

  // Corrupt one body byte of p0's record on disk. The next touch must fail
  // DataLoss and quarantine the record — never serve a silently wrong
  // price — while p1's record in the same pack stays live.
  std::string bytes = spill0.bytes;
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  PatchFileBytes(spill0.path, spill0.offset + bytes.size() / 2,
                 std::string_view(bytes).substr(bytes.size() / 2, 1));

  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  MarketRound round;
  stream->Next(&rng, &round);
  Quote quote;
  Status touched =
      broker.PostPrice({"chaos/p0", round.features, round.reserve}, &quote);
  EXPECT_EQ(touched.code(), StatusCode::kDataLoss);
  // The damaged bytes are kept, the record is retired in its pack.
  EXPECT_EQ(ReadFileBytes(spill0.path + "." + std::to_string(spill0.offset) +
                          ".quarantined"),
            bytes);
  EXPECT_EQ(ReadFileBytes(spill0.path).substr(spill0.offset, 8), kTombstoneMagic);
  spills = LiveSpills(config.spill_dir);
  EXPECT_EQ(spills.count("chaos/p0"), 0u);
  EXPECT_EQ(spills.count("chaos/p1"), 1u);
  EXPECT_EQ(registry.GetCounter("pdm_broker_spill_corruptions_total", "").value(),
            1u);
  EXPECT_EQ(broker.Stats().quarantined_sessions, 1u);

  // The quarantined session keeps answering DataLoss (no retry loop into the
  // bad file), snapshot/restore refuse too, and close is clean.
  SessionSnapshot snap;
  EXPECT_EQ(broker.Snapshot("chaos/p0", &snap).code(), StatusCode::kDataLoss);
  EXPECT_EQ(broker
                .PostPrice({"chaos/p0", round.features, round.reserve}, &quote)
                .code(),
            StatusCode::kDataLoss);
  EXPECT_TRUE(broker.CloseSession("chaos/p0").ok());

  // The sibling session is unharmed and faults back in.
  EXPECT_TRUE(
      broker.PostPrice({"chaos/p1", round.features, round.reserve}, &quote).ok());
}

TEST(BrokerChaosTest, IntactSpillWithACutTheEngineCannotApplyIsQuarantined) {
  // The envelope checks out, but the pending cut's support direction is too
  // short for the dim-6 knowledge set. Fault-in must refuse it as DataLoss
  // rather than restore it and abort on the ticket's feedback.
  FaultGuard guard;
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("chaos/badcut", 6, 2000, "pure", 27);
  BrokerConfig config;
  config.spill_dir = ChaosDir("badcut");
  Broker broker(config);
  ASSERT_TRUE(broker.OpenSession("chaos/badcut", spec, factory.Prepare(spec)).ok());
  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  MarketRound round;
  stream->Next(&rng, &round);
  Quote quote;
  ASSERT_TRUE(
      broker.PostPrice({"chaos/badcut", round.features, round.reserve}, &quote).ok());
  ASSERT_EQ(broker.EvictIdleSessions(0), 1u);

  const LiveSpill spill = LiveSpills(config.spill_dir)["chaos/badcut"];
  SessionSnapshot snap;
  ASSERT_TRUE(DecodeSessionSnapshot(spill.bytes, &snap).ok());
  ASSERT_EQ(snap.pending.size(), 1u);
  ASSERT_GT(snap.pending[0].cut.support.half_width, 0.0);
  snap.pending[0].cut.support.direction.resize(2);
  // The slot reads its record's exact byte range, so the re-encoded
  // envelope keeps the length: the product name (informational) takes up
  // the four doubles the direction lost.
  snap.product += std::string(4 * sizeof(double), '_');
  const std::string damaged = EncodeSessionSnapshot(snap);
  ASSERT_EQ(damaged.size(), spill.bytes.size());
  PatchFileBytes(spill.path, spill.offset, damaged);

  EXPECT_EQ(broker.Observe(quote.ticket, false).code(), StatusCode::kDataLoss);
  EXPECT_EQ(ReadFileBytes(spill.path + "." + std::to_string(spill.offset) + ".quarantined"),
            damaged);
  EXPECT_EQ(broker.Stats().quarantined_sessions, 1u);
  EXPECT_TRUE(broker.CloseSession("chaos/badcut").ok());
}

TEST(BrokerChaosTest, MissingSpillSurfacesDataLoss) {
  FaultGuard guard;
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("chaos/missing", 6, 2000, "reserve", 23);
  BrokerConfig config;
  config.spill_dir = ChaosDir("missing");
  Broker broker(config);
  ASSERT_TRUE(broker.OpenSession("chaos/gone", spec, factory.Prepare(spec)).ok());
  DriveRounds(&broker, &factory, spec, "chaos/gone", 10);
  ASSERT_EQ(broker.EvictIdleSessions(0), 1u);
  ASSERT_TRUE(std::filesystem::remove(LiveSpills(config.spill_dir)["chaos/gone"].path));

  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  MarketRound round;
  stream->Next(&rng, &round);
  Quote quote;
  EXPECT_EQ(
      broker.PostPrice({"chaos/gone", round.features, round.reserve}, &quote).code(),
      StatusCode::kDataLoss);
  EXPECT_TRUE(broker.CloseSession("chaos/gone").ok());
}

TEST(BrokerChaosTest, InjectedSpillWriteFailureKeepsSessionResident) {
  FaultGuard guard;
  StreamFactory factory;
  metrics::MetricRegistry registry;
  ScenarioSpec spec = LinearSpec("chaos/wfail", 6, 2000, "reserve", 25);
  BrokerConfig config;
  config.spill_dir = ChaosDir("wfail");
  config.metrics = &registry;
  Broker broker(config);
  ASSERT_TRUE(broker.OpenSession("chaos/w0", spec, factory.Prepare(spec)).ok());
  DriveRounds(&broker, &factory, spec, "chaos/w0", 10);

  // Every step of landing a pack can fail, the directory fsync after the
  // rename included; each failure keeps the session resident and leaves
  // neither the pack nor its tmp behind. The failed wave ends its sweep, so
  // the untouched session is tried once per round.
  const std::vector<std::string> sites{"spill.open",  "spill.short_write",
                                       "spill.write", "spill.fsync",
                                       "spill.rename", "spill.dir_fsync"};
  uint64_t errors = 0;
  for (const std::string& site : sites) {
    FaultInjector::Global().Reset();
    FaultInjector::Global().TriggerOnHit(site, 1);
    FaultInjector::Global().Arm(3);
    EXPECT_EQ(broker.EvictIdleSessions(0), 0u) << site;  // write failed → not evicted
    EXPECT_EQ(FaultInjector::Global().fires(site), 1u) << site;
    EXPECT_EQ(registry.GetCounter("pdm_broker_spill_write_errors_total", "").value(),
              ++errors)
        << site;
    EXPECT_EQ(broker.Stats().resident_sessions, 1u) << site;
    EXPECT_TRUE(std::filesystem::is_empty(config.spill_dir)) << site;
  }

  // The session still serves, and a later (fault-free) eviction succeeds.
  FaultInjector::Global().Disarm();
  DriveRounds(&broker, &factory, spec, "chaos/w0", 5);
  EXPECT_EQ(broker.EvictIdleSessions(0), 1u);
  DriveRounds(&broker, &factory, spec, "chaos/w0", 5);  // faults back in
}

TEST(BrokerChaosTest, StartupSweepAdoptsByNameQuarantinesCorruptReclaimsOrphans) {
  FaultGuard guard;
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("chaos/recover", 6, 2000, "reserve", 27);
  WorkloadInfo info = factory.Prepare(spec);
  const std::string dir = ChaosDir("recover");

  // Build the pre-crash state with a donor broker: price some rounds, leave
  // tickets pending, and capture the exact spill bytes eviction wrote.
  std::string spill_bytes;
  std::string expected;
  {
    BrokerConfig donor_config;
    donor_config.spill_dir = ChaosDir("recover_donor");
    Broker donor(donor_config);
    ASSERT_TRUE(donor.OpenSession("chaos/adopted", spec, info).ok());
    DriveRounds(&donor, &factory, spec, "chaos/adopted", 25);
    SessionSnapshot snap;
    ASSERT_TRUE(donor.Snapshot("chaos/adopted", &snap).ok());
    expected = EncodeSessionSnapshot(snap);
    ASSERT_EQ(donor.EvictIdleSessions(0), 1u);
    spill_bytes = LiveSpills(donor_config.spill_dir)["chaos/adopted"].bytes;
    ASSERT_EQ(spill_bytes, expected);
  }

  // Fake a crashed broker's directory in the one-file-per-spill layout,
  // whose files the sweep reads as packs of one: a valid spill, a torn
  // .tmp, and a corrupt spill.
  std::filesystem::create_directories(dir);
  WriteFileBytes(dir + "/slot-4.snap", spill_bytes);
  WriteFileBytes(dir + "/slot-9.snap.tmp", "torn half-write");
  std::string corrupt = spill_bytes;
  corrupt[corrupt.size() - 1] = static_cast<char>(corrupt[corrupt.size() - 1] ^ 0xFF);
  WriteFileBytes(dir + "/slot-7.snap", corrupt);

  BrokerConfig config;
  config.spill_dir = dir;
  Broker broker(config);
  RecoveryReport report = broker.recovery_report();
  EXPECT_EQ(report.tmp_reclaimed, 1u);
  EXPECT_EQ(report.spills_found, 1u);
  EXPECT_EQ(report.corrupt_quarantined, 1u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/slot-9.snap.tmp"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/slot-7.snap.quarantined"));

  // Opening the matching product adopts the spill: the session starts
  // evicted and faults in to *exactly* the pre-crash state.
  ASSERT_TRUE(broker.OpenSession("chaos/adopted", spec, info).ok());
  EXPECT_EQ(broker.recovery_report().adopted, 1u);
  EXPECT_EQ(broker.Stats().evicted_sessions, 1u);
  SessionSnapshot recovered;
  ASSERT_TRUE(broker.Snapshot("chaos/adopted", &recovered).ok());
  EXPECT_EQ(EncodeSessionSnapshot(recovered), expected);

  // Nothing else claims spills in this test, so the sweep finds none left;
  // an unclaimed spill added later is reclaimed (the leak fix).
  EXPECT_EQ(broker.SweepUnclaimedSpills(), 0u);
}

// The restart open order need not match the pre-crash slot layout. Adoption
// points each fresh slot at its product's record in place, so adopting
// product B into what used to be A's slot index can never touch A's
// still-unclaimed bytes (the bug the one-file layout once had: A then
// silently served B's state while B's slot was quarantined as DataLoss).
TEST(BrokerChaosTest, AdoptionSurvivesReversedRestartOpenOrder) {
  FaultGuard guard;
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("chaos/reorder", 6, 2000, "reserve", 31);
  WorkloadInfo info = factory.Prepare(spec);
  const std::string dir = ChaosDir("reorder");

  // Pre-crash layout: A at slot 0, B at slot 1, with distinct states.
  std::string expected_a, expected_b;
  {
    BrokerConfig donor_config;
    donor_config.spill_dir = ChaosDir("reorder_donor");
    Broker donor(donor_config);
    ASSERT_TRUE(donor.OpenSession("chaos/a", spec, info).ok());
    ASSERT_TRUE(donor.OpenSession("chaos/b", spec, info).ok());
    DriveRounds(&donor, &factory, spec, "chaos/a", 25);
    DriveRounds(&donor, &factory, spec, "chaos/b", 10);
    SessionSnapshot snap;
    ASSERT_TRUE(donor.Snapshot("chaos/a", &snap).ok());
    expected_a = EncodeSessionSnapshot(snap);
    ASSERT_TRUE(donor.Snapshot("chaos/b", &snap).ok());
    expected_b = EncodeSessionSnapshot(snap);
    ASSERT_NE(expected_a, expected_b);
    ASSERT_EQ(donor.EvictIdleSessions(0), 2u);
    // Both records share one pack.
    std::filesystem::copy(donor_config.spill_dir, dir);
    ASSERT_EQ(LiveSpills(dir).size(), 2u);
    ASSERT_EQ(CountFiles(dir, ".snap"), 1u);
  }

  // Restart opens B first: B lands on slot 0 (A's pre-crash index) and A on
  // slot 1. Both must fault back to their OWN pre-crash state.
  BrokerConfig config;
  config.spill_dir = dir;
  Broker broker(config);
  EXPECT_EQ(broker.recovery_report().spills_found, 2u);
  ASSERT_TRUE(broker.OpenSession("chaos/b", spec, info).ok());
  ASSERT_TRUE(broker.OpenSession("chaos/a", spec, info).ok());
  EXPECT_EQ(broker.recovery_report().adopted, 2u);

  SessionSnapshot recovered;
  ASSERT_TRUE(broker.Snapshot("chaos/a", &recovered).ok());
  EXPECT_EQ(EncodeSessionSnapshot(recovered), expected_a);
  ASSERT_TRUE(broker.Snapshot("chaos/b", &recovered).ok());
  EXPECT_EQ(EncodeSessionSnapshot(recovered), expected_b);
  EXPECT_EQ(broker.SweepUnclaimedSpills(), 0u);
}

TEST(BrokerChaosTest, UnclaimedSpillsAreSweptNotLeaked) {
  FaultGuard guard;
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("chaos/orphan", 6, 2000, "reserve", 29);
  WorkloadInfo info = factory.Prepare(spec);
  const std::string dir = ChaosDir("orphan");

  {
    BrokerConfig donor_config;
    donor_config.spill_dir = ChaosDir("orphan_donor");
    Broker donor(donor_config);
    ASSERT_TRUE(donor.OpenSession("chaos/left-behind", spec, info).ok());
    DriveRounds(&donor, &factory, spec, "chaos/left-behind", 5);
    ASSERT_EQ(donor.EvictIdleSessions(0), 1u);
    std::filesystem::copy(donor_config.spill_dir, dir);
  }
  const std::string pack = LiveSpills(dir)["chaos/left-behind"].path;
  ASSERT_FALSE(pack.empty());

  BrokerConfig config;
  config.spill_dir = dir;
  Broker broker(config);
  EXPECT_EQ(broker.recovery_report().spills_found, 1u);
  // The fleet this broker opens does NOT include the orphan's product.
  ASSERT_TRUE(broker.OpenSession("chaos/other", spec, info).ok());
  EXPECT_EQ(broker.SweepUnclaimedSpills(), 1u);
  EXPECT_FALSE(std::filesystem::exists(pack));  // its only record was unclaimed
  EXPECT_EQ(broker.recovery_report().orphans_reclaimed, 1u);
}

// An OS crash can bring back a record whose tombstone never reached the
// disk, beside the newer record its product was spilled to later. The sweep
// visits older files first — the one-file layout before every pack, packs
// by number — so the newer record wins and the older one is reclaimed.
TEST(BrokerChaosTest, DuplicateSpillsAdoptTheNewest) {
  FaultGuard guard;
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("chaos/dup", 6, 2000, "reserve", 41);
  WorkloadInfo info = factory.Prepare(spec);
  const std::string dir = ChaosDir("dup");
  std::filesystem::create_directories(dir);
  std::string newer;
  {
    BrokerConfig donor_config;
    donor_config.spill_dir = ChaosDir("dup_donor");
    Broker donor(donor_config);
    ASSERT_TRUE(donor.OpenSession("chaos/dup", spec, info).ok());
    DriveRounds(&donor, &factory, spec, "chaos/dup", 10);
    ASSERT_EQ(donor.EvictIdleSessions(0), 1u);
    // The older spill, as the one-file layout would have named it.
    WriteFileBytes(dir + "/slot-7.snap", LiveSpills(donor_config.spill_dir)["chaos/dup"].bytes);
    DriveRounds(&donor, &factory, spec, "chaos/dup", 5);
    SessionSnapshot snap;
    ASSERT_TRUE(donor.Snapshot("chaos/dup", &snap).ok());
    newer = EncodeSessionSnapshot(snap);
    ASSERT_EQ(donor.EvictIdleSessions(0), 1u);
    const LiveSpill spill = LiveSpills(donor_config.spill_dir)["chaos/dup"];
    ASSERT_EQ(spill.bytes, newer);
    WriteFileBytes(dir + "/pack-3.snap", spill.bytes);
  }
  BrokerConfig config;
  config.spill_dir = dir;
  Broker broker(config);
  EXPECT_EQ(broker.recovery_report().spills_found, 1u);
  EXPECT_EQ(broker.recovery_report().orphans_reclaimed, 1u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/slot-7.snap"));  // its only record
  ASSERT_TRUE(broker.OpenSession("chaos/dup", spec, info).ok());
  SessionSnapshot adopted;
  ASSERT_TRUE(broker.Snapshot("chaos/dup", &adopted).ok());
  EXPECT_EQ(EncodeSessionSnapshot(adopted), newer);
}

// An eviction wave lands as one pack, and the fault sites are drawn on the
// sweeping thread in wave order: a scripted fault fails the same wave on
// every run, and only that wave's victims stay resident.
TEST(BrokerChaosTest, WaveFaultScheduleIsTheSameEveryRun) {
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("chaos/wave", 6, 2000, "reserve", 33);
  WorkloadInfo info = factory.Prepare(spec);
  constexpr size_t kWave = 64;       // EvictIdleSessions' wave size
  constexpr size_t kProducts = 160;  // waves of 64, 64 and 32
  constexpr size_t kLastWave = kProducts - 2 * kWave;
  std::vector<std::string> names;
  for (size_t i = 0; i < kProducts; ++i) names.push_back("chaos/wave" + std::to_string(i));
  std::vector<std::string> first_resident;
  for (int rep = 0; rep < 20; ++rep) {
    FaultGuard guard;
    metrics::MetricRegistry registry;
    BrokerConfig config;
    config.spill_dir = ChaosDir("wave");
    config.metrics = &registry;
    Broker broker(config);
    ASSERT_TRUE(broker.OpenSessions(names, spec, info).ok());
    for (const std::string& name : names) DriveRounds(&broker, &factory, spec, name, 5);

    // Three waves; the third one's fsync fails. (A failed wave ends its
    // sweep, so the last wave is the one whose failure leaves nothing
    // untried behind it.)
    FaultInjector::Global().TriggerOnHit("spill.fsync", 3);
    FaultInjector::Global().Arm(3);
    EXPECT_EQ(broker.EvictIdleSessions(0), 2 * kWave) << "rep " << rep;
    FaultInjector::Global().Disarm();
    EXPECT_EQ(FaultInjector::Global().hits("spill.fsync"), 3u);
    EXPECT_EQ(broker.Stats().resident_sessions, kLastWave);
    EXPECT_EQ(registry.GetCounter("pdm_broker_spill_write_errors_total", "").value(),
              kLastWave);

    // Two packs; every spilled product has exactly one live record, which
    // decodes to its own product.
    EXPECT_EQ(CountFiles(config.spill_dir, ".snap"), 2u);
    EXPECT_EQ(CountFiles(config.spill_dir, ".tmp"), 0u);  // the failed pack's tmp too
    const std::map<std::string, LiveSpill> spills = LiveSpills(config.spill_dir);
    EXPECT_EQ(spills.size(), 2 * kWave);
    std::vector<std::string> resident;
    for (const std::string& name : names) {
      if (spills.count(name) == 0) resident.push_back(name);
    }
    if (rep == 0) first_resident = resident;
    ASSERT_EQ(resident, first_resident) << "rep " << rep;
  }
  // The CLOCK hand starts at slot 0, so the third wave is slots 128..159.
  ASSERT_EQ(first_resident.size(), kLastWave);
  EXPECT_EQ(first_resident.front(), names[2 * kWave]);
  EXPECT_EQ(first_resident.back(), names[kProducts - 1]);
}

// A disk that fails every pack is written once per sweep: the first failed
// wave ends the sweep with its victims and every untried candidate resident,
// and the next sweep starts over.
TEST(BrokerChaosTest, FailingDiskEndsTheSweepAtItsFirstPack) {
  FaultGuard guard;
  StreamFactory factory;
  metrics::MetricRegistry registry;
  ScenarioSpec spec = LinearSpec("chaos/dead", 6, 2000, "reserve", 45);
  WorkloadInfo info = factory.Prepare(spec);
  constexpr size_t kProducts = 3 * 64 + 8;  // four waves' worth
  std::vector<std::string> names;
  for (size_t i = 0; i < kProducts; ++i) names.push_back("chaos/dead" + std::to_string(i));
  BrokerConfig config;
  config.spill_dir = ChaosDir("dead");
  config.metrics = &registry;
  Broker broker(config);
  ASSERT_TRUE(broker.OpenSessions(names, spec, info).ok());
  FaultInjector::Global().SetProbability("spill.fsync", 1.0);
  FaultInjector::Global().Arm(5);
  EXPECT_EQ(broker.EvictIdleSessions(0), 0u);
  EXPECT_EQ(FaultInjector::Global().hits("spill.fsync"), 1u);
  EXPECT_EQ(registry.GetCounter("pdm_broker_spill_write_errors_total", "").value(), 64u);
  EXPECT_EQ(broker.Stats().resident_sessions, kProducts);
  EXPECT_TRUE(std::filesystem::is_empty(config.spill_dir));
  // The next sweep retries, once again.
  EXPECT_EQ(broker.EvictIdleSessions(0), 0u);
  EXPECT_EQ(FaultInjector::Global().hits("spill.fsync"), 2u);
  FaultInjector::Global().Disarm();
  EXPECT_EQ(broker.EvictIdleSessions(0), kProducts);
  EXPECT_EQ(broker.Stats().evicted_sessions, kProducts);
}

// Fault-in tombstones the record it consumed, in place, before the session
// moves on. A kill -9 at any later instant leaves the pack with that record
// retired: the restarted broker never adopts it, so it cannot shadow the
// state its session moved on to, while the pack's other records adopt.
TEST(BrokerChaosTest, ConsumedSpillNeverShadowsLiveStateAfterACrash) {
  FaultGuard guard;
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("chaos/consumed", 6, 2000, "reserve", 35);
  WorkloadInfo info = factory.Prepare(spec);
  const std::string dir = ChaosDir("consumed");
  const std::string crashed = ChaosDir("consumed_crash");
  const std::vector<std::string> names{"chaos/c0", "chaos/c1", "chaos/c2"};
  std::vector<std::string> expected(names.size());
  {
    BrokerConfig config;
    config.spill_dir = dir;
    Broker broker(config);
    ASSERT_TRUE(broker.OpenSessions(names, spec, info).ok());
    for (size_t i = 0; i < names.size(); ++i) {
      DriveRounds(&broker, &factory, spec, names[i], 10 + 5 * static_cast<int>(i));
      SessionSnapshot snap;
      ASSERT_TRUE(broker.Snapshot(names[i], &snap).ok());
      expected[i] = EncodeSessionSnapshot(snap);
    }
    ASSERT_EQ(broker.EvictIdleSessions(0), 3u);
    const LiveSpill c0 = LiveSpills(dir)["chaos/c0"];
    // c0 faults back in and moves on; no sweep runs after it.
    DriveRounds(&broker, &factory, spec, names[0], 5);
    // The consumed record is a tombstone inside the still-live pack.
    const std::string pack = ReadFileBytes(c0.path);
    EXPECT_EQ(pack.substr(c0.offset, 8), kTombstoneMagic);
    EXPECT_EQ(pack.substr(c0.offset + 8, c0.bytes.size() - 8), c0.bytes.substr(8));
    const std::map<std::string, LiveSpill> live = LiveSpills(dir);
    EXPECT_EQ(live.size(), 2u);
    EXPECT_EQ(live.count("chaos/c0"), 0u);
    EXPECT_EQ(CountFiles(dir, ".tmp"), 0u);
    // The simulated kill -9: the directory as the crash would leave it.
    std::filesystem::copy(dir, crashed, std::filesystem::copy_options::recursive);
  }
  // ~Broker discarded the evicted slots' records, so their pack went too.
  EXPECT_TRUE(std::filesystem::is_empty(dir));

  BrokerConfig config;
  config.spill_dir = crashed;
  {
    Broker restarted(config);
    const RecoveryReport report = restarted.recovery_report();
    EXPECT_EQ(report.tmp_reclaimed, 0u);  // nothing to reclaim: c0 is a tombstone
    EXPECT_EQ(report.spills_found, 2u);   // c1 and c2, nothing for c0
    ASSERT_TRUE(restarted.OpenSessions(names, spec, info).ok());
    EXPECT_EQ(restarted.recovery_report().adopted, 2u);
    EXPECT_EQ(restarted.Stats().evicted_sessions, 2u);
    // c0 opened fresh rather than from the bytes it had consumed.
    SessionInfo fresh;
    ASSERT_TRUE(restarted.GetSessionInfo(names[0], &fresh).ok());
    EXPECT_EQ(fresh.quotes_issued, 0);
    for (size_t i = 1; i < names.size(); ++i) {
      SessionSnapshot snap;
      ASSERT_TRUE(restarted.Snapshot(names[i], &snap).ok());
      EXPECT_EQ(EncodeSessionSnapshot(snap), expected[i]) << names[i];
    }
    EXPECT_EQ(restarted.SweepUnclaimedSpills(), 0u);
  }
  EXPECT_EQ(CountFiles(crashed, ".tmp"), 0u);
}

// A fault-in whose tombstone write fails must not let the session move on
// while its record still reads as live: the touch fails Unavailable, the
// slot stays evicted, and a retry faults in to the exact spilled state.
TEST(BrokerChaosTest, FailedTombstoneWriteLeavesTheSlotEvictedForARetry) {
  FaultGuard guard;
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("chaos/tomb", 6, 2000, "reserve", 37);
  BrokerConfig config;
  config.spill_dir = ChaosDir("tomb");
  Broker broker(config);
  ASSERT_TRUE(broker.OpenSession("chaos/tomb", spec, factory.Prepare(spec)).ok());
  DriveRounds(&broker, &factory, spec, "chaos/tomb", 12);
  SessionSnapshot snap;
  ASSERT_TRUE(broker.Snapshot("chaos/tomb", &snap).ok());
  const std::string expected = EncodeSessionSnapshot(snap);
  ASSERT_EQ(broker.EvictIdleSessions(0), 1u);

  FaultInjector::Global().TriggerOnHit("spill.tombstone", 1);
  FaultInjector::Global().Arm(5);
  EXPECT_EQ(broker.Snapshot("chaos/tomb", &snap).code(), StatusCode::kUnavailable);
  FaultInjector::Global().Disarm();
  const BrokerStats stats = broker.Stats();
  EXPECT_EQ(stats.evicted_sessions, 1u);
  EXPECT_EQ(stats.resident_sessions, 0u);
  EXPECT_EQ(stats.fault_ins, 0u);
  EXPECT_EQ(stats.quarantined_sessions, 0u);
  EXPECT_EQ(LiveSpills(config.spill_dir).count("chaos/tomb"), 1u);

  ASSERT_TRUE(broker.Snapshot("chaos/tomb", &snap).ok());
  EXPECT_EQ(EncodeSessionSnapshot(snap), expected);
  EXPECT_EQ(broker.Stats().fault_ins, 1u);
  EXPECT_TRUE(LiveSpills(config.spill_dir).empty());
}

// What a kill -9 leaves is the page cache: the spill directory exactly as
// the broker last wrote it. This drill copies the directory after every
// eviction wave of 8 and after every fault-in, restarts a broker on each
// copy, and checks the §14 contract on multi-record packs: every committed
// eviction adopts bit-identically, no tombstoned record is adopted, and one
// flipped body byte costs only its own record.
struct CrashCopy {
  std::string dir;
  /// product → the bytes its durable spill must restore (evicted products
  /// only; a product absent here was resident, its record consumed).
  std::map<std::string, std::string> durable;
};

/// Drives one broker through evictions and fault-ins, keeping the model a
/// crash copy is checked against, and copies the spill directory after
/// every step.
class CrashDrill {
 public:
  CrashDrill(Broker* broker, StreamFactory* factory, const ScenarioSpec& spec,
             const std::vector<std::string>& names, std::string dir, std::string tag)
      : broker_(broker), factory_(factory), spec_(spec), names_(names),
        dir_(std::move(dir)), tag_(std::move(tag)) {}

  /// Copies the spill directory as a kill -9 would leave it now.
  void Copy() { copies.push_back({CopyDir(), durable}); }

  /// Copies the spill directory without recording it, for a copy whose
  /// model is only known later.
  std::string CopyDir() {
    const std::string copy = ChaosDir(tag_ + "_copy" + std::to_string(copy_dirs_++));
    std::filesystem::copy(dir_, copy);
    return copy;
  }

  /// Sweeps to `max_resident`, expecting `evicted` victims, and moves them
  /// into the model. Only resident products are snapshotted first: a
  /// snapshot of an evicted one would fault it in.
  void EvictTo(size_t max_resident, size_t evicted) {
    std::map<std::string, std::string> before;
    for (const std::string& name : names_) {
      if (durable.count(name) != 0) continue;
      SessionSnapshot snap;
      ASSERT_TRUE(broker_->Snapshot(name, &snap).ok());
      before[name] = EncodeSessionSnapshot(snap);
    }
    ASSERT_EQ(broker_->EvictIdleSessions(max_resident), evicted);
    const std::map<std::string, LiveSpill> live = LiveSpills(dir_);
    for (const auto& [name, bytes] : before) {
      auto it = live.find(name);
      if (it == live.end()) continue;
      EXPECT_EQ(it->second.bytes, bytes) << name;
      durable[name] = bytes;
    }
    ASSERT_EQ(live.size(), durable.size());
    // Every durable record is live on disk with its bytes, relocated or not.
    for (const auto& [name, bytes] : durable) {
      auto it = live.find(name);
      ASSERT_NE(it, live.end()) << name;
      EXPECT_EQ(it->second.bytes, bytes) << name;
    }
    Copy();
  }

  /// Touches product `i`, which faults it in and moves it past its record.
  void FaultIn(size_t i) {
    DriveRounds(broker_, factory_, spec_, names_[i], 2);
    durable.erase(names_[i]);
    Copy();
  }

  std::vector<CrashCopy> copies;
  /// The model: each product's bytes as of its last eviction, while evicted.
  std::map<std::string, std::string> durable;

 private:
  Broker* broker_;
  StreamFactory* factory_;
  const ScenarioSpec& spec_;
  const std::vector<std::string>& names_;
  const std::string dir_;
  const std::string tag_;
  size_t copy_dirs_ = 0;
};

void RestartOnCrashCopy(const CrashCopy& copy, const std::vector<std::string>& names,
                        const ScenarioSpec& spec, const WorkloadInfo& info) {
  SCOPED_TRACE(copy.dir);
  BrokerConfig config;
  config.spill_dir = copy.dir;
  Broker restarted(config);
  EXPECT_EQ(restarted.recovery_report().spills_found, copy.durable.size());
  EXPECT_EQ(restarted.recovery_report().corrupt_quarantined, 0u);
  ASSERT_TRUE(restarted.OpenSessions(names, spec, info).ok());
  EXPECT_EQ(restarted.recovery_report().adopted, copy.durable.size());
  for (const std::string& name : names) {
    auto it = copy.durable.find(name);
    if (it == copy.durable.end()) {
      SessionInfo fresh;  // never adopted from a tombstoned record
      ASSERT_TRUE(restarted.GetSessionInfo(name, &fresh).ok());
      EXPECT_EQ(fresh.quotes_issued, 0) << name;
      continue;
    }
    SessionSnapshot snap;
    ASSERT_TRUE(restarted.Snapshot(name, &snap).ok()) << name;
    EXPECT_EQ(EncodeSessionSnapshot(snap), it->second) << name;
  }
}

TEST(BrokerChaosTest, CrashCopiesOfMultiRecordPacksAdoptExactly) {
  FaultGuard guard;
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("chaos/packs", 6, 2000, "reserve", 39);
  WorkloadInfo info = factory.Prepare(spec);
  constexpr size_t kProducts = 24;  // three waves of 8
  std::vector<std::string> names;
  for (size_t i = 0; i < kProducts; ++i) names.push_back("chaos/pk" + std::to_string(i));
  const std::string dir = ChaosDir("packs");
  std::vector<CrashCopy> copies;
  {
    BrokerConfig config;
    config.spill_dir = dir;
    Broker broker(config);
    ASSERT_TRUE(broker.OpenSessions(names, spec, info).ok());
    for (size_t i = 0; i < kProducts; ++i) {
      DriveRounds(&broker, &factory, spec, names[i], 3 + static_cast<int>(i % 5));
    }
    CrashDrill drill(&broker, &factory, spec, names, dir, "packs");
    drill.EvictTo(16, 8);
    drill.EvictTo(8, 8);
    drill.EvictTo(0, 8);
    EXPECT_EQ(CountFiles(dir, ".snap"), 3u);
    drill.FaultIn(0);     // first pack
    drill.FaultIn(9);     // second pack
    drill.EvictTo(0, 2);  // both again, into a fourth pack
    drill.FaultIn(0);     // its record in the fourth pack
    // Consume the whole third pack: it dies with its eighth fault-in, and
    // the next wave unlinks it.
    for (size_t i = 16; i < kProducts; ++i) drill.FaultIn(i);
    EXPECT_EQ(CountFiles(dir, ".snap"), 4u);
    drill.EvictTo(kProducts, 0);
    EXPECT_EQ(CountFiles(dir, ".snap"), 3u);
    copies = std::move(drill.copies);
  }
  ASSERT_EQ(copies.size(), 16u);
  // A restart rewrites its copy (fault-ins tombstone), so the damaged
  // variant below starts from a copy of its own.
  CrashCopy full = copies[2];  // after the third wave
  ASSERT_EQ(full.durable.size(), kProducts);
  full.dir = ChaosDir("packs_flip");
  std::filesystem::copy(copies[2].dir, full.dir);
  for (const CrashCopy& copy : copies) RestartOnCrashCopy(copy, names, spec, info);

  // One flipped body byte in a pack of eight live records: that record is
  // quarantined with its bytes kept, and its seven pack mates still adopt.
  const std::map<std::string, LiveSpill> live = LiveSpills(full.dir);
  const LiveSpill& victim = live.at(names[12]);
  std::string damaged = victim.bytes;
  damaged[damaged.size() / 2] = static_cast<char>(damaged[damaged.size() / 2] ^ 0x10);
  PatchFileBytes(victim.path, victim.offset, damaged);
  {
    BrokerConfig config;
    config.spill_dir = full.dir;
    Broker restarted(config);
    EXPECT_EQ(restarted.recovery_report().corrupt_quarantined, 1u);
    EXPECT_EQ(restarted.recovery_report().spills_found, kProducts - 1);
    EXPECT_EQ(ReadFileBytes(victim.path + "." + std::to_string(victim.offset) + ".quarantined"),
              damaged);
    ASSERT_TRUE(restarted.OpenSessions(names, spec, info).ok());
    EXPECT_EQ(restarted.recovery_report().adopted, kProducts - 1);
    for (const std::string& name : names) {
      SessionSnapshot snap;
      ASSERT_TRUE(restarted.Snapshot(name, &snap).ok()) << name;
      if (name == names[12]) {
        EXPECT_EQ(snap.quotes_issued, 0);  // opened fresh
      } else {
        EXPECT_EQ(EncodeSessionSnapshot(snap), full.durable.at(name)) << name;
      }
    }
  }
  // The quarantined record reads as a tombstone now: a second restart finds
  // no damage left, and the forensic copy is never read back.
  {
    BrokerConfig config;
    config.spill_dir = full.dir;
    Broker again(config);
    EXPECT_EQ(again.recovery_report().corrupt_quarantined, 0u);
  }
}

// The pack cleaner moves a sparse pack's live records, bytes unchanged, into
// a later wave's pack, and retires each old copy only once that pack has
// landed. This drill copies the spill directory after every wave and
// fault-in, and once between a cleaning wave's landing and its first
// retire (placed through the spill.tombstone site): every restart adopts
// each product bit-identically, a crash between landing and retiring
// leaves byte-identical duplicates the startup sweep collapses, and no
// restart adopts a record its session moved past. A failed retire leaves
// its slot on the old record and retires the new copy instead.
TEST(BrokerChaosTest, CrashCopiesOfACleaningRunAdoptExactly) {
  FaultGuard guard;
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("chaos/clean", 6, 2000, "reserve", 43);
  WorkloadInfo info = factory.Prepare(spec);
  constexpr size_t kProducts = 40;
  std::vector<std::string> names;
  for (size_t i = 0; i < kProducts; ++i) names.push_back("chaos/cl" + std::to_string(i));
  const std::string dir = ChaosDir("clean");
  std::vector<CrashCopy> copies;
  CrashCopy between;  // taken inside the cleaning wave
  {
    BrokerConfig config;
    config.spill_dir = dir;
    Broker broker(config);
    ASSERT_TRUE(broker.OpenSessions(names, spec, info).ok());
    for (size_t i = 0; i < kProducts; ++i) {
      DriveRounds(&broker, &factory, spec, names[i], 3 + static_cast<int>(i % 5));
    }
    CrashDrill drill(&broker, &factory, spec, names, dir, "clean");
    drill.EvictTo(0, kProducts);  // one pack of 40
    const std::string first = LiveSpills(dir).at(names[0]).path;
    // 35 fault-ins leave 5 of its 40 records live: the pack turns sparse.
    for (size_t i = 0; i < 35; ++i) drill.FaultIn(i);

    // The cleaning wave: 25 victims (cl0..cl24, from the CLOCK hand at
    // slot 0) plus the 5 stragglers land as one pack, then the old copies
    // retire and the first pack dies.
    FaultInjector::Global().SetHook("spill.tombstone", [&] {
      if (between.dir.empty()) between.dir = drill.CopyDir();
    });
    FaultInjector::Global().Arm(9);
    drill.EvictTo(10, 25);
    FaultInjector::Global().Reset();
    between.durable = drill.durable;  // the landed pack holds the same bytes
    ASSERT_FALSE(between.dir.empty());
    EXPECT_EQ(broker.Stats().relocations, 5u);
    EXPECT_FALSE(std::filesystem::exists(first));
    EXPECT_EQ(CountFiles(dir, ".snap"), 1u);
    EXPECT_EQ(broker.Stats().spill_file_bytes, std::filesystem::file_size(
                                                   LiveSpills(dir).at(names[35]).path));

    // Thin the new pack of 30 down to 3 live records, then fail the first
    // retire of the next cleaning wave: the 10 products that stayed
    // resident, untouched since, plus the 3 stragglers.
    const std::string second = LiveSpills(dir).at(names[35]).path;
    for (size_t i = 0; i < 25; ++i) drill.FaultIn(i);
    drill.FaultIn(35);
    drill.FaultIn(36);
    const std::vector<std::string> stragglers{names[37], names[38], names[39]};
    FaultInjector::Global().TriggerOnHit("spill.tombstone", 1);
    FaultInjector::Global().Arm(9);
    drill.EvictTo(27, 10);
    FaultInjector::Global().Reset();
    EXPECT_EQ(broker.Stats().relocations, 7u);
    // One straggler still lives in the second pack, on its old record; the
    // other two moved, and the failed one's new copy is a tombstone.
    const std::map<std::string, LiveSpill> live = LiveSpills(dir);
    size_t left = 0;
    for (const std::string& name : stragglers) left += live.at(name).path == second ? 1 : 0;
    EXPECT_EQ(left, 1u);
    EXPECT_EQ(CountFiles(dir, ".snap"), 2u);
    // A later wave moves it too, and the second pack dies.
    drill.EvictTo(27, 0);
    EXPECT_EQ(broker.Stats().relocations, 8u);
    EXPECT_FALSE(std::filesystem::exists(second));
    copies = std::move(drill.copies);
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  for (const CrashCopy& copy : copies) RestartOnCrashCopy(copy, names, spec, info);
  // The copy between landing and retiring holds each straggler twice, byte
  // for byte; the sweep keeps the newer and reclaims the older.
  {
    BrokerConfig config;
    config.spill_dir = between.dir;
    Broker restarted(config);
    EXPECT_EQ(restarted.recovery_report().orphans_reclaimed, 5u);
    EXPECT_EQ(restarted.recovery_report().spills_found, between.durable.size());
  }
  RestartOnCrashCopy(between, names, spec, info);
}

// ------------------------------------------------------- server chaos

TEST(ServerChaosTest, OverloadShedsFramesWithResourceExhausted) {
  FaultGuard guard;
  Broker broker;
  server::ServerConfig config;
  config.max_inflight_frames = 1;  // serve one frame per wakeup, shed the rest
  server::TcpServer server(&broker, config);
  ASSERT_TRUE(server.Start().ok());

  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  constexpr int kBurst = 16;
  for (int i = 0; i < kBurst; ++i) client.QueuePing();
  ASSERT_TRUE(client.Flush().ok());
  int ok = 0, shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    server::Response resp;
    ASSERT_TRUE(client.ReadResponse(&resp).ok());
    if (resp.status.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(resp.status.code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GT(ok, 0);    // at least the first frame of each wakeup serves
  EXPECT_GT(shed, 0);  // a 16-deep pipeline must trip a 1-frame cap
  EXPECT_EQ(server.stats().shed_frames, shed);

  // Shedding is load shedding, not a drop: the connection still serves.
  EXPECT_TRUE(client.Ping().ok());
  server.Stop();
}

TEST(ServerChaosTest, IdleConnectionsAreReapedWithAnErrorFrame) {
  FaultGuard guard;
  Broker broker;
  server::ServerConfig config;
  config.idle_timeout_ms = 50;
  server::TcpServer server(&broker, config);
  ASSERT_TRUE(server.Start().ok());

  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Ping().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  // The reaper closed us: the next exchange surfaces the final error frame
  // (or the close itself) as a transport-level Unavailable.
  Status s = client.Ping();
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
  EXPECT_GE(server.stats().idle_reaped, 1);

  // A fresh connection works — the reaper only kills the silent one.
  ASSERT_TRUE(client.Reconnect().ok());
  EXPECT_TRUE(client.Ping().ok());
  server.Stop();
}

// A peer that triggers a framing violation and then never reads its socket
// leaves the final error frame (plus any pinned response backlog) undrained
// forever. The idle reaper must kill such connections rather than exempting
// them — otherwise exactly the misbehaving peers it targets pin their fd,
// buffers, and poll slot indefinitely.
TEST(ServerChaosTest, ViolatedConnectionThatNeverReadsIsReaped) {
  FaultGuard guard;
  Broker broker;
  server::ServerConfig config;
  config.idle_timeout_ms = 50;
  config.so_sndbuf = 4096;  // no autotune: a silent peer pins output fast
  server::TcpServer server(&broker, config);
  ASSERT_TRUE(server.Start().ok());

  // Raw socket with a tiny receive window (negotiated before connect).
  server::UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(fd.valid());
  int rcvbuf = 1024;
  ASSERT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);

  // Pipeline pings whose responses this peer will never read: once served,
  // they overflow the shrunken socket buffers into the connection's
  // userspace backlog. (Serve them fully BEFORE the violation below — a
  // violation discards all unparsed input, so interleaving would leave no
  // backlog to pin the error frame behind.)
  std::string burst;
  ByteWriter w(&burst);
  for (uint64_t i = 1; i <= 4000; ++i) {
    size_t frame = w.BeginLength();
    server::PutRequestHeader(&w, server::Opcode::kPing, i);
    w.EndLength(frame);
  }
  ASSERT_EQ(::send(fd.get(), burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  for (int i = 0; i < 200 && server.stats().frames_served < 4000; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server.stats().frames_served, 4000);

  // Now the framing violation (oversized length prefix): the connection
  // flips to close_after_flush with its error frame pinned behind the
  // unread response backlog.
  std::string garbage;
  {
    ByteWriter g(&garbage);
    g.PutU32(static_cast<uint32_t>(server::kMaxFramePayloadBytes + 1));
  }
  ASSERT_EQ(::send(fd.get(), garbage.data(), garbage.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));

  // Never read. The reaper must still free the connection.
  for (int i = 0; i < 200 && server.stats().idle_reaped < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.stats().idle_reaped, 1);
  EXPECT_GE(server.stats().protocol_errors, 1);
  server.Stop();
}

TEST(ServerChaosTest, InjectedRecvResetIsAbsorbedByClientRetry) {
  FaultGuard guard;
  Broker broker;
  server::TcpServer server(&broker);
  ASSERT_TRUE(server.Start().ok());

  // First read on the connection dies mid-frame (simulated ECONNRESET);
  // the retrying client reconnects and the second attempt lands.
  FaultInjector::Global().TriggerOnHit("server.recv_reset", 1);
  FaultInjector::Global().Arm(5);

  server::ClientConfig client_config;
  client_config.max_retries = 3;
  client_config.backoff_base_ms = 1;
  server::Client client(client_config);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_GE(client.retries(), 1);
  EXPECT_GE(client.reconnects(), 1);
  EXPECT_EQ(FaultInjector::Global().fires("server.recv_reset"), 1u);

  FaultInjector::Global().Disarm();
  server.Stop();
}

TEST(ServerChaosTest, InjectedAcceptFailureOnlyCostsOneDial) {
  FaultGuard guard;
  Broker broker;
  server::TcpServer server(&broker);
  ASSERT_TRUE(server.Start().ok());

  FaultInjector::Global().TriggerOnHit("server.accept", 1);
  FaultInjector::Global().Arm(5);

  server::ClientConfig client_config;
  client_config.max_retries = 3;
  client_config.backoff_base_ms = 1;
  server::Client client(client_config);
  // The first accept is dropped server-side; the connect itself succeeds
  // (the kernel completed the handshake), so the failure surfaces on the
  // first exchange and the retry redials.
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(FaultInjector::Global().fires("server.accept"), 1u);

  FaultInjector::Global().Disarm();
  server.Stop();
}

// ------------------------------------------------------- client chaos

TEST(ClientChaosTest, DeadlineExpiresAgainstASilentServer) {
  FaultGuard guard;
  // A listener that never accepts: the kernel completes the TCP handshake
  // from the backlog, then the "server" stays silent forever.
  server::UniqueFd listener;
  uint16_t port = 0;
  ASSERT_TRUE(server::ListenTcp("127.0.0.1", 0, &listener, &port).ok());

  // The call waits out its whole deadline, even one under the 1 ms poll
  // granularity.
  for (int deadline_ms : {100, 1}) {
    SCOPED_TRACE(deadline_ms);
    server::ClientConfig config;
    config.deadline_ms = deadline_ms;
    server::Client client(config);
    ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
    const auto before = std::chrono::steady_clock::now();
    Status s = client.Ping();
    const auto waited = std::chrono::steady_clock::now() - before;
    EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();
    EXPECT_GE(waited, std::chrono::milliseconds(deadline_ms));
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited).count(),
              5000);
    // The connection is poisoned: a late response must never be matched to
    // the next request.
    EXPECT_FALSE(client.connected());
  }
}

TEST(ClientChaosTest, RetriesReconnectAcrossAServerRestart) {
  FaultGuard guard;
  Broker broker;
  auto server1 = std::make_unique<server::TcpServer>(&broker);
  ASSERT_TRUE(server1->Start().ok());
  const uint16_t port = server1->port();

  server::ClientConfig config;
  config.max_retries = 5;
  config.backoff_base_ms = 5;
  server::Client client(config);
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  ASSERT_TRUE(client.Ping().ok());

  // Kill the server and immediately bring up a replacement on the same port
  // (SO_REUSEADDR). The client's next idempotent call rides its retry loop
  // across the gap.
  server1.reset();
  server::ServerConfig config2;
  config2.port = port;
  server::TcpServer server2(&broker, config2);
  ASSERT_TRUE(server2.Start().ok());

  EXPECT_TRUE(client.Ping().ok());
  EXPECT_GE(client.reconnects(), 1);
  server2.Stop();
}

TEST(ClientChaosTest, MutatingCallsSurfaceUnavailableAndNeverAutoRetry) {
  FaultGuard guard;
  StreamFactory factory;
  ScenarioSpec spec = LinearSpec("chaos/mutate", 6, 2000, "reserve", 33);
  Broker broker;
  ASSERT_TRUE(broker.OpenSession("chaos/mutate", spec, factory.Prepare(spec)).ok());
  server::TcpServer server(&broker);
  ASSERT_TRUE(server.Start().ok());

  server::ClientConfig config;
  config.max_retries = 5;
  config.backoff_base_ms = 1;
  server::Client client(config);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  broker::ProductHandle handle;
  ASSERT_TRUE(client.Resolve("chaos/mutate", &handle).ok());

  // A ticket for the feedback below, priced while the transport is healthy.
  std::vector<double> features(6, 0.1);
  Quote priced;
  ASSERT_TRUE(client.PostPrice(handle, features, 0.0, &priced).ok());

  // Every recv dies until disarmed: a PostPrice must fail Unavailable after
  // ONE send (at-most-once — the broker may or may not have priced it), not
  // silently replay.
  FaultInjector::Global().SetProbability("server.recv_reset", 1.0);
  FaultInjector::Global().Arm(9);
  const int64_t retries_before = client.retries();
  Quote quote;
  Status s = client.PostPrice(handle, features, 0.0, &quote);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
  EXPECT_EQ(client.retries(), retries_before);  // no auto-retry for mutations

  // Feedback is at-most-once too (DESIGN.md §14): one dial, one send, then
  // Unavailable — a replay could land after the first copy was applied.
  const int64_t reconnects_before = client.reconnects();
  Status observed = client.Observe(priced.ticket, true);
  EXPECT_EQ(observed.code(), StatusCode::kUnavailable) << observed.ToString();
  EXPECT_EQ(client.retries(), retries_before);
  EXPECT_EQ(client.reconnects(), reconnects_before + 1);
  FaultInjector::Global().Disarm();

  // The next mutating call auto-reconnects first and succeeds.
  EXPECT_TRUE(client.PostPrice(handle, features, 0.0, &quote).ok());
  server.Stop();
}

}  // namespace
}  // namespace pdm::broker
