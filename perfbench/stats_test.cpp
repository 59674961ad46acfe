// Unit tests of the benchmark's own arithmetic.

#include <gtest/gtest.h>

#include "stats.h"

using namespace perfbench;

TEST(Percentile, InterpolatesBetweenClosestRanks)
{
    std::vector<double> v = {4, 1, 3, 2};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 4);
    EXPECT_DOUBLE_EQ(median(v), 2.5);
    EXPECT_DOUBLE_EQ(percentile(v, 25), 1.75);
    EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
    EXPECT_DOUBLE_EQ(percentile({7}, 99), 7);
}

TEST(Percentile, TailKeepsTenSamplesBeyond)
{
    // p99.9 needs 10000 samples, p99 1000, p90 100, p50 20.
    EXPECT_DOUBLE_EQ(tailPercentileFor(10000), 99.9);
    EXPECT_DOUBLE_EQ(tailPercentileFor(9999), 99);
    EXPECT_DOUBLE_EQ(tailPercentileFor(1000), 99);
    EXPECT_DOUBLE_EQ(tailPercentileFor(999), 90);
    EXPECT_DOUBLE_EQ(tailPercentileFor(100), 90);
    EXPECT_DOUBLE_EQ(tailPercentileFor(99), 50);
    EXPECT_DOUBLE_EQ(tailPercentileFor(20), 50);
    EXPECT_DOUBLE_EQ(tailPercentileFor(19), 0);
    EXPECT_DOUBLE_EQ(tailPercentileFor(0), 0);
}

TEST(SelfTime, SubtractsUnionOfOverlappingChildren)
{
    std::vector<Span> s = {
        {"root", 0, 10, -1},
        {"a", 1, 4, 0},
        {"b", 3, 6, 0},   // overlaps a: union of a and b is [1,6]
        {"c", 8, 12, 0},  // runs past the parent: clipped to [8,10]
        {"d", 2, 3, 1},   // grandchild: counted against a only
    };
    auto self = selfTimes(s);
    EXPECT_DOUBLE_EQ(self[0], 10 - 5 - 2);
    EXPECT_DOUBLE_EQ(self[1], 3 - 1);
    EXPECT_DOUBLE_EQ(self[2], 3);
    EXPECT_DOUBLE_EQ(self[3], 4);
    EXPECT_DOUBLE_EQ(self[4], 1);
}

TEST(SelfTime, NestedAndDisjointChildren)
{
    std::vector<Span> s = {
        {"root", 0, 10, -1},
        {"a", 0, 2, 0},
        {"b", 0.5, 1.5, 0}, // inside a
        {"c", 5, 6, 0},
    };
    auto self = selfTimes(s);
    EXPECT_DOUBLE_EQ(self[0], 10 - 2 - 1);
    EXPECT_EQ(moduleOf("difftest.run"), "difftest");
    EXPECT_EQ(moduleOf("perfbench"), "perfbench");
}

TEST(Ratios, FanoutEfficiencyAndOverheads)
{
    // 6 s of serial slices on 3 workers in 2.5 s: 80% busy.
    EXPECT_DOUBLE_EQ(fanoutEfficiency(6, 3, 2.5), 0.8);
    EXPECT_DOUBLE_EQ(fanoutEfficiency(6, 0, 2.5), 0);
    EXPECT_DOUBLE_EQ(fanoutEfficiency(6, 3, 0), 0);
    EXPECT_DOUBLE_EQ(ratio(3, 2), 1.5);
    EXPECT_DOUBLE_EQ(ratio(3, 0), 0);
    // DiffTest 3.5 s over a 2.0 s DUT; scoreboard off 2.75 s removes
    // half of the 1.5 s overhead.
    EXPECT_DOUBLE_EQ(overheadShare(3.5, 2.75, 2.0), 0.5);
    EXPECT_DOUBLE_EQ(overheadShare(2.0, 2.0, 2.0), 0);
}

TEST(MetricName, Charset)
{
    EXPECT_TRUE(validMetricName("setup_s"));
    EXPECT_TRUE(validMetricName("campaign.job_ms_p50.spike-dromajo"));
    EXPECT_TRUE(validMetricName("0ab"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName(".x"));
    EXPECT_FALSE(validMetricName("_x"));
    EXPECT_FALSE(validMetricName("a b"));
    EXPECT_FALSE(validMetricName("a/b"));
    EXPECT_FALSE(validMetricName("a:b"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
}
