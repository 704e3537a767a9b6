// Cross-build goldens: whole markets pinned to constants, not to another
// path of the same build.
//
// Each case runs one linear market through RunMarket and pins two values:
// its cumulative regret as a hexfloat (every bit of the double) and the
// CRC-32 of the engine's final `pdm.snap` bytes, which cover the center, the
// shape matrix and every counter. The other bitwise pins in this suite
// compare two paths of one binary; these compare against a constant, so a
// kernel change that reassociates a reduction fails here even when it does
// so the same way on every path. The constants hold across build types and
// dispatch targets: the Release build runs the x86-64-v3 kernel clones,
// sanitizer and clang builds the baseline ones (common/arch.h), and with FP
// contraction off in linalg both produce the same bits (DESIGN.md §4).

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <ostream>
#include <string>

#include "broker/snapshot.h"
#include "common/crc32.h"
#include "market/simulator.h"
#include "scenario/mechanism_registry.h"
#include "scenario/stream_factory.h"

namespace pdm {
namespace {

using scenario::MechanismRegistry;
using scenario::ScenarioSpec;
using scenario::StreamFactory;

struct Golden {
  std::string regret;  // %a of the cumulative regret
  uint32_t snap_crc;   // CRC-32 of the final pdm.snap bytes
};

ScenarioSpec GoldenSpec(int n, const std::string& mechanism, bool packed) {
  ScenarioSpec spec;
  spec.name = "golden/" + mechanism + "/n=" + std::to_string(n) + (packed ? "/packed" : "");
  spec.family = "golden";
  spec.stream = scenario::StreamKind::kLinear;
  spec.mechanism = mechanism;
  spec.n = n;
  spec.rounds = 2000;
  spec.delta = 0.01;
  spec.linear.num_owners = 200;
  spec.workload_seed = 4242;
  spec.sim_seed = 99;
  spec.packed_shape = packed;
  return spec;
}

Golden RunGolden(const ScenarioSpec& spec) {
  StreamFactory factory;
  std::unique_ptr<PricingEngine> engine =
      MechanismRegistry::Builtin().Build(spec, factory.Prepare(spec));
  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory.CreateStream(spec, &rng);
  SimulationOptions options;
  options.rounds = spec.rounds;
  const SimulationResult result = RunMarket(stream.get(), engine.get(), options, &rng);

  char regret[64];
  std::snprintf(regret, sizeof regret, "%a", result.tracker.cumulative_regret());
  broker::SessionSnapshot snapshot;
  snapshot.product = spec.name;
  EXPECT_TRUE(engine->SaveSnapshot(&snapshot.engine));
  return {regret, Crc32(broker::EncodeSessionSnapshot(snapshot))};
}

struct GoldenCase {
  int n;
  const char* mechanism;
  bool packed;
  const char* regret;
  uint32_t snap_crc;
};

void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << c.mechanism << " n=" << c.n << (c.packed ? " packed" : " dense");
}

class CrossBuildGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(CrossBuildGolden, RegretAndSnapshotMatchTheConstants) {
  const GoldenCase& c = GetParam();
  const Golden got = RunGolden(GoldenSpec(c.n, c.mechanism, c.packed));
  EXPECT_EQ(got.regret, c.regret);
  EXPECT_EQ(got.snap_crc, c.snap_crc) << std::hex << "0x" << got.snap_crc;
}

// Captured with the one-row-per-pass mat-vec kernel. A change to any value
// here is a change to the engine's arithmetic and must be argued as one.
INSTANTIATE_TEST_SUITE_P(
    Markets, CrossBuildGolden,
    ::testing::Values(
        GoldenCase{20, "pure", false, "0x1.3b61e7070aac6p+11", 0xad1d3ac2u},
        GoldenCase{20, "reserve+uncertainty", false, "0x1.53f85c99b3e42p+10", 0x07e0fabdu},
        GoldenCase{55, "pure", false, "0x1.4fe81448bb22p+11", 0xeaa24563u},
        GoldenCase{55, "reserve+uncertainty", false, "0x1.1e47dc6796295p+11", 0xe348d693u},
        GoldenCase{100, "pure", false, "0x1.53275710cfe05p+12", 0xccc34f26u},
        GoldenCase{100, "reserve+uncertainty", false, "0x1.093eee08b4688p+12", 0x3fbb6ee4u},
        GoldenCase{128, "pure", false, "0x1.df737bee75287p+12", 0xf7cab8efu},
        GoldenCase{128, "reserve+uncertainty", false, "0x1.100d809c8e926p+12", 0x12afb24fu},
        GoldenCase{32, "reserve", true, "0x1.066a7ad6af8ep+11", 0x8318c400u}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      std::string name = std::string(info.param.mechanism) + "_n" +
                         std::to_string(info.param.n) +
                         (info.param.packed ? "_packed" : "_dense");
      for (char& ch : name) {
        if (ch == '+') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace pdm
