// Tests for the bench harness helpers: paper-delta formatting and CLI flag
// parsing. ParallelFor's tests are in parallel_test.cc.

#include <gtest/gtest.h>

#include <string>

#include "bench/bench_util.h"

namespace neve {
namespace {

char* Mutable(const char* s) { return const_cast<char*>(s); }

TEST(VsPaperTest, PositiveReference) {
  std::string s = VsPaper(110, 100);
  EXPECT_NE(s.find("110"), std::string::npos);
  EXPECT_NE(s.find("paper 100"), std::string::npos);
  EXPECT_NE(s.find("+10%"), std::string::npos);
}

TEST(VsPaperTest, NegativeReferenceKeepsDeltaSignMeaningful) {
  // Regression: dividing by a signed negative reference flipped the delta's
  // sign. -50 measured against -100 is *above* the reference: +50%.
  std::string s = VsPaper(-50, -100);
  EXPECT_NE(s.find("+50%"), std::string::npos) << s;
  std::string below = VsPaper(-150, -100);
  EXPECT_NE(below.find("-50%"), std::string::npos) << below;
}

TEST(VsPaperTest, ZeroReferenceIsNa) {
  EXPECT_NE(VsPaper(42, 0).find("n/a"), std::string::npos);
}

TEST(JsonOutPathTest, AbsentFlagYieldsEmpty) {
  char* argv[] = {Mutable("bench")};
  EXPECT_EQ(JsonOutPath(1, argv), "");
}

TEST(JsonOutPathTest, LastFlagWins) {
  // Regression: the parser used to return the *first* --json=, breaking the
  // standard CLI convention that a later flag overrides an earlier one.
  char* argv[] = {Mutable("bench"), Mutable("--json=a.json"),
                  Mutable("--threads=2"), Mutable("--json=b.json")};
  EXPECT_EQ(JsonOutPath(4, argv), "b.json");
}

TEST(ThreadsFromArgsTest, ParsesAndDefaults) {
  char* none[] = {Mutable("bench")};
  EXPECT_EQ(ThreadsFromArgs(1, none), DefaultBenchThreads());
  char* four[] = {Mutable("bench"), Mutable("--threads=4")};
  EXPECT_EQ(ThreadsFromArgs(2, four), 4u);
  char* last[] = {Mutable("bench"), Mutable("--threads=4"),
                  Mutable("--threads=2")};
  EXPECT_EQ(ThreadsFromArgs(3, last), 2u);
  char* zero[] = {Mutable("bench"), Mutable("--threads=0")};
  EXPECT_EQ(ThreadsFromArgs(2, zero), DefaultBenchThreads());
}

TEST(FaultFlagsTest, DefaultsLeaveInjectionOff) {
  char* argv[] = {Mutable("bench")};
  EXPECT_EQ(FaultSeedFromArgs(1, argv), 0u);
  EXPECT_EQ(FaultRateFromArgs(1, argv), 0.0);
}

TEST(FaultFlagsTest, ParsesSeedAndRateLastFlagWins) {
  char* argv[] = {Mutable("bench"), Mutable("--fault-seed=7"),
                  Mutable("--fault-rate=0.25"), Mutable("--fault-seed=12345"),
                  Mutable("--fault-rate=0.5")};
  EXPECT_EQ(FaultSeedFromArgs(5, argv), 12345u);
  EXPECT_EQ(FaultRateFromArgs(5, argv), 0.5);
}

TEST(FaultFlagsTest, SeedIsFull64Bit) {
  char* argv[] = {Mutable("bench"), Mutable("--fault-seed=18446744073709551615")};
  EXPECT_EQ(FaultSeedFromArgs(2, argv), ~uint64_t{0});
}

TEST(FaultFlagsTest, CampaignEnabledOnlyByPositiveRate) {
  char* seed_only[] = {Mutable("bench"), Mutable("--fault-seed=7")};
  FaultConfig f = FaultCampaignFromArgs(2, seed_only);
  EXPECT_FALSE(f.enabled);  // a seed alone must not arm injection
  EXPECT_EQ(f.seed, 7u);

  char* both[] = {Mutable("bench"), Mutable("--fault-seed=7"),
                  Mutable("--fault-rate=0.1")};
  f = FaultCampaignFromArgs(3, both);
  EXPECT_TRUE(f.enabled);
  EXPECT_EQ(f.seed, 7u);
  EXPECT_EQ(f.rate, 0.1);
  EXPECT_GT(f.watchdog_budget, 22'000'000u);  // clears a full nested-v8.3 boot
}

}  // namespace
}  // namespace neve
