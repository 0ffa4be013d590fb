#include <cmath>
#include <set>
#include <vector>

#include "common/check.h"
#include "common/fnv1a.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "gtest/gtest.h"

namespace kddn {
namespace {

TEST(CheckTest, PassingCheckDoesNothing) {
  EXPECT_NO_THROW(KDDN_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(KDDN_CHECK_EQ(3, 3));
  EXPECT_NO_THROW(KDDN_CHECK_LT(1, 2));
}

TEST(CheckTest, FailingCheckThrowsKddnError) {
  EXPECT_THROW(KDDN_CHECK(false), KddnError);
  EXPECT_THROW(KDDN_CHECK_EQ(1, 2), KddnError);
  EXPECT_THROW(KDDN_CHECK_GT(1, 2), KddnError);
}

TEST(CheckTest, MessagePayloadIsIncluded) {
  try {
    KDDN_CHECK(false) << "custom context " << 42;
    FAIL() << "expected throw";
  } catch (const KddnError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom context 42"), std::string::npos);
    EXPECT_NE(what.find("common_test.cc"), std::string::npos);
  }
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() != b.Next()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 30);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double total = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    total += u;
  }
  EXPECT_NEAR(total / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(9);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.UniformInt(7);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformIntRejectsNonPositive) {
  Rng rng(1);
  EXPECT_THROW(rng.UniformInt(0), KddnError);
  EXPECT_THROW(rng.UniformInt(-3), KddnError);
}

TEST(RngTest, NormalMomentsAreSane) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, NormalWithParameters) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Normal(5.0, 2.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(29);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) {
    ++counts[rng.Categorical(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / 20000.0, 0.25, 0.02);
  EXPECT_NEAR(counts[2] / 20000.0, 0.75, 0.02);
}

TEST(RngTest, CategoricalRejectsDegenerateInput) {
  Rng rng(1);
  EXPECT_THROW(rng.Categorical({}), KddnError);
  EXPECT_THROW(rng.Categorical({0.0, 0.0}), KddnError);
  EXPECT_THROW(rng.Categorical({1.0, -1.0}), KddnError);
}

TEST(RngTest, PoissonMean) {
  Rng rng(31);
  double total = 0.0;
  for (int i = 0; i < 20000; ++i) {
    total += rng.Poisson(4.0);
  }
  EXPECT_NEAR(total / 20000.0, 4.0, 0.1);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> values = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> shuffled = values;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(41);
  Rng child = parent.Split();
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("Cardiac TAMPONADE 9"), "cardiac tamponade 9");
}

TEST(StringUtilTest, SplitDropsEmptyPieces) {
  const auto pieces = Split("a,,b, c", ", ");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "c");
}

TEST(StringUtilTest, SplitEmptyInput) {
  EXPECT_TRUE(Split("", ",").empty());
  EXPECT_TRUE(Split(",,,", ",").empty());
}

TEST(StringUtilTest, JoinRoundTrips) {
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(Join({}, "-"), "");
  EXPECT_EQ(Join({"solo"}, "-"), "solo");
}

TEST(StringUtilTest, Strip) {
  EXPECT_EQ(Strip("  note text \t\n"), "note text");
  EXPECT_EQ(Strip("\t \n"), "");
  EXPECT_EQ(Strip("x"), "x");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("cardiac tamponade", "cardiac"));
  EXPECT_FALSE(StartsWith("cardiac", "cardiac tamponade"));
  EXPECT_TRUE(EndsWith("pleural effusion", "effusion"));
  EXPECT_FALSE(EndsWith("effusion", "pleural effusion"));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.8725, 3), "0.873");
  EXPECT_EQ(FormatDouble(1.0, 1), "1.0");
}

// The repo's FNV-1a values, pinned. The offset basis is the published one
// with its last digit dropped (see common/fnv1a.h); checkpoint checksums,
// snapshot fingerprints, the note-cache key, and the committed training
// goldens all depend on these exact outputs.
TEST(Fnv1aTest, PinsRepoOffsetBasisValues) {
  EXPECT_EQ(kFnv1aOffsetBasis, 1469598103934665603ULL);
  EXPECT_EQ(Fnv1a("", 0), 0x14650fb0739d0383ULL);
  EXPECT_EQ(Fnv1a("", 0), kFnv1aOffsetBasis);
  EXPECT_EQ(Fnv1a("a", 1), 0x44bd8ad473cd9906ULL);
  EXPECT_EQ(Fnv1a("foobar", 6), 0x88fad7c0a8ff07f2ULL);
}

// FrozenModel hashes its weight blob in one call; the golden tests hash the
// same floats tensor by tensor, chaining the state. Both must agree.
TEST(Fnv1aTest, ChainedStateMatchesOneShotBlobHash) {
  EXPECT_EQ(Fnv1a("bar", 3, Fnv1a("foo", 3)), Fnv1a("foobar", 6));
  const std::vector<float> blob = {0.5f, -1.25f, 3.0e-8f, -0.0f, 7.0f};
  const uint64_t one_shot = Fnv1a(blob.data(), blob.size() * sizeof(float));
  uint64_t chained = kFnv1aOffsetBasis;
  chained = Fnv1a(blob.data(), 2 * sizeof(float), chained);
  chained = Fnv1a(blob.data() + 2, 3 * sizeof(float), chained);
  EXPECT_EQ(chained, one_shot);
}

}  // namespace
}  // namespace kddn
