/**
 * @file
 * Tests for the clamped integral control law.
 */

#include <gtest/gtest.h>

#include "control/integral.h"

namespace {

using nps::ctl::integralStep;

TEST(IntegralStep, UpdateAccumulates)
{
    double u = 0.0;
    u = integralStep(u, 1.0, 2.0, -10.0, 10.0);
    EXPECT_DOUBLE_EQ(u, 2.0);
    u = integralStep(u, 1.0, 2.0, -10.0, 10.0);
    EXPECT_DOUBLE_EQ(u, 4.0);
    u = integralStep(u, 0.5, -2.0, -10.0, 10.0);
    EXPECT_DOUBLE_EQ(u, 3.0);
}

TEST(IntegralStep, ClampsToRange)
{
    EXPECT_DOUBLE_EQ(integralStep(0.0, 1.0, 100.0, -1.0, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(integralStep(1.0, 1.0, -300.0, -1.0, 1.0), -1.0);
}

TEST(IntegralStep, AntiWindup)
{
    // After saturating high, a single negative error must immediately
    // move the value (no windup to unwind).
    double u = 0.0;
    for (int i = 0; i < 100; ++i)
        u = integralStep(u, 1.0, 5.0, 0.0, 1.0);
    EXPECT_DOUBLE_EQ(u, 1.0);
    EXPECT_DOUBLE_EQ(integralStep(u, 1.0, -0.25, 0.0, 1.0), 0.75);
}

TEST(IntegralStep, BadRangeDies)
{
    EXPECT_DEATH(integralStep(0.0, 1.0, 1.0, 1.0, 0.0), "lo");
}

} // namespace
