/**
 * @file
 * Tests for utilization traces: wraparound, statistics, scaling, and the
 * stacking operator used to build the high-activity mixes.
 */

#include <gtest/gtest.h>

#include <limits>

#include "trace/trace.h"

namespace {

using nps::trace::UtilizationTrace;
using nps::trace::WorkloadClass;

UtilizationTrace
make(std::vector<double> v)
{
    return UtilizationTrace("t", WorkloadClass::WebServer, std::move(v));
}

TEST(Trace, BasicAccessors)
{
    auto t = make({0.1, 0.2, 0.3});
    EXPECT_EQ(t.name(), "t");
    EXPECT_EQ(t.workloadClass(), WorkloadClass::WebServer);
    EXPECT_EQ(t.length(), 3u);
    EXPECT_FALSE(t.empty());
    EXPECT_DOUBLE_EQ(t.at(1), 0.2);
}

TEST(Trace, WrapsAround)
{
    auto t = make({0.1, 0.2, 0.3});
    EXPECT_DOUBLE_EQ(t.at(3), 0.1);
    EXPECT_DOUBLE_EQ(t.at(7), 0.2);
}

TEST(Trace, EmptyAtDies)
{
    UtilizationTrace t;
    EXPECT_TRUE(t.empty());
    EXPECT_DEATH(t.at(0), "empty");
}

TEST(Trace, CopiesShareOneBuffer)
{
    auto t = make({0.1, 0.2, 0.3});
    UtilizationTrace copy = t;
    UtilizationTrace assigned;
    assigned = t;
    EXPECT_EQ(copy.samples().data(), t.samples().data());
    EXPECT_EQ(assigned.samples().data(), t.samples().data());
    EXPECT_DOUBLE_EQ(copy.at(4), 0.2);
}

TEST(Trace, MovedFromIsEmpty)
{
    auto t = make({0.1, 0.2, 0.3});
    UtilizationTrace moved = std::move(t);
    EXPECT_DOUBLE_EQ(moved.at(2), 0.3);
    EXPECT_TRUE(t.empty());
    EXPECT_TRUE(t.samples().empty());
    EXPECT_DEATH(t.at(0), "empty");
    UtilizationTrace target = make({0.5});
    target = std::move(moved);
    EXPECT_EQ(target.length(), 3u);
    EXPECT_TRUE(moved.empty());
}

TEST(Trace, NegativeSampleDies)
{
    EXPECT_DEATH(make({0.1, -0.2}), "negative");
}

TEST(Trace, NonFiniteSampleDies)
{
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_DEATH(make({0.1, std::numeric_limits<double>::quiet_NaN()}),
                 "non-finite");
    EXPECT_DEATH(make({inf}), "non-finite");
    EXPECT_DEATH(make({0.2, -inf}), "non-finite");
    // Scaling cannot smuggle one in either.
    EXPECT_DEATH(make({1e300}).scaled(1e10), "non-finite");
}

TEST(Trace, MeanAndPeak)
{
    auto t = make({0.1, 0.2, 0.3, 0.8});
    EXPECT_NEAR(t.mean(), 0.35, 1e-12);
    EXPECT_DOUBLE_EQ(t.peak(), 0.8);
}

TEST(Trace, EmptyMeanPeakZero)
{
    UtilizationTrace t;
    EXPECT_EQ(t.mean(), 0.0);
    EXPECT_EQ(t.peak(), 0.0);
}

TEST(Trace, Scaled)
{
    auto t = make({0.2, 0.4}).scaled(2.0);
    EXPECT_DOUBLE_EQ(t.at(0), 0.4);
    EXPECT_DOUBLE_EQ(t.at(1), 0.8);
}

TEST(Trace, ScaledNegativeDies)
{
    EXPECT_DEATH(make({0.2}).scaled(-1.0), "negative");
}

TEST(Trace, StackSumsSamples)
{
    auto a = make({0.1, 0.2});
    auto b = make({0.3, 0.3});
    auto s = UtilizationTrace::stack({a, b}, "sum");
    EXPECT_EQ(s.name(), "sum");
    EXPECT_EQ(s.length(), 2u);
    EXPECT_DOUBLE_EQ(s.at(0), 0.4);
    EXPECT_DOUBLE_EQ(s.at(1), 0.5);
}

TEST(Trace, StackCanExceedOne)
{
    auto s = UtilizationTrace::stack({make({0.8}), make({0.7})}, "hot");
    EXPECT_DOUBLE_EQ(s.at(0), 1.5);
}

TEST(Trace, StackWrapsShorterInputs)
{
    auto a = make({0.1, 0.2, 0.3, 0.4});
    auto b = make({1.0, 2.0});
    auto s = UtilizationTrace::stack({a, b}, "w");
    EXPECT_EQ(s.length(), 4u);
    EXPECT_DOUBLE_EQ(s.at(2), 0.3 + 1.0);
    EXPECT_DOUBLE_EQ(s.at(3), 0.4 + 2.0);
}

TEST(Trace, StackEmptyInputsDie)
{
    EXPECT_DEATH(UtilizationTrace::stack({}, "x"), "no inputs");
    UtilizationTrace empty;
    EXPECT_DEATH(UtilizationTrace::stack({empty}, "x"), "empty input");
}

TEST(Trace, ClassNames)
{
    EXPECT_STREQ(nps::trace::workloadClassName(WorkloadClass::Database),
                 "db");
    EXPECT_STREQ(nps::trace::workloadClassName(WorkloadClass::FileServer),
                 "file");
}

} // namespace
