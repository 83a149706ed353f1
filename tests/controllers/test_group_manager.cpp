/**
 * @file
 * Tests for the Group Manager: coordinated (hierarchical) and
 * uncoordinated (direct-to-server) budget provisioning.
 */

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "common/fixtures.h"
#include "controllers/group_manager.h"

namespace {

using namespace nps;
using controllers::EfficiencyController;
using controllers::EnclosureManager;
using controllers::GroupManager;
using controllers::ServerManager;

class GmTest : public ::testing::Test
{
  protected:
    GmTest() : cluster_(nps_test::smallCluster(0.3))
    {
        for (auto &srv : cluster_.servers()) {
            ecs_.push_back(std::make_unique<EfficiencyController>(
                srv, EfficiencyController::Params{}));
            sms_.push_back(std::make_unique<ServerManager>(
                srv, ecs_.back().get(), cluster_.capLoc(srv.id()),
                ServerManager::Params{}));
        }
        std::vector<ServerManager *> blades;
        for (sim::ServerId s : cluster_.enclosure(0).members())
            blades.push_back(sms_[s].get());
        em_ = std::make_unique<EnclosureManager>(
            cluster_, 0, std::move(blades), cluster_.capEnc(0),
            EnclosureManager::Params{});
    }

    GroupManager
    makeGm(GroupManager::Params p = {})
    {
        std::vector<ServerManager *> standalone;
        for (sim::ServerId s : cluster_.standaloneServers())
            standalone.push_back(sms_[s].get());
        std::vector<ServerManager *> all;
        for (auto &sm : sms_)
            all.push_back(sm.get());
        return GroupManager(cluster_, {em_.get()}, std::move(standalone),
                            std::move(all), cluster_.capGrp(), p);
    }

    void
    warm(GroupManager &gm, size_t ticks)
    {
        for (size_t t = 0; t < ticks; ++t) {
            cluster_.evaluateTick(t);
            gm.observe(t);
        }
    }

    sim::Cluster cluster_;
    std::vector<std::unique_ptr<EfficiencyController>> ecs_;
    std::vector<std::unique_ptr<ServerManager>> sms_;
    std::unique_ptr<EnclosureManager> em_;
};

TEST_F(GmTest, CoordinatedGrantsSumToBudget)
{
    auto gm = makeGm();
    warm(gm, 60);
    gm.step(50);
    const auto &grants = gm.lastGrants();
    ASSERT_EQ(grants.size(), 3u);  // 1 enclosure + 2 standalone
    double total = std::accumulate(grants.begin(), grants.end(), 0.0);
    EXPECT_NEAR(total, cluster_.capGrp(), 1e-6);
    // The enclosure (4 equal blades) must get roughly 2x a standalone
    // server's grant... actually 4x the demand share.
    EXPECT_GT(grants[0], grants[1] * 3.0);
}

TEST_F(GmTest, CoordinatedPushesThroughHierarchy)
{
    auto gm = makeGm();
    warm(gm, 60);
    gm.step(50);
    // The EM's dynamic cap was set to its grant (capped at static).
    EXPECT_NEAR(em_->effectiveCap(),
                std::min(cluster_.capEnc(0), gm.lastGrants()[0]), 1e-9);
    // Standalone SMs received budgets directly.
    for (size_t i = 0; i < cluster_.standaloneServers().size(); ++i) {
        sim::ServerId s = cluster_.standaloneServers()[i];
        EXPECT_LE(sms_[s]->effectiveCap(), cluster_.capLoc(s) + 1e-9);
    }
}

TEST_F(GmTest, UncoordinatedBypassesEms)
{
    GroupManager::Params p;
    p.mode = GroupManager::Mode::Uncoordinated;
    auto gm = makeGm(p);
    warm(gm, 60);
    double em_cap_before = em_->effectiveCap();
    gm.step(50);
    // The EM was not consulted...
    EXPECT_DOUBLE_EQ(em_->effectiveCap(), em_cap_before);
    // ...but every server's SM budget was overwritten, including the
    // enclosed blades the EM thinks it owns.
    ASSERT_EQ(gm.lastGrants().size(), cluster_.numServers());
    double total = std::accumulate(gm.lastGrants().begin(),
                                   gm.lastGrants().end(), 0.0);
    EXPECT_NEAR(total, cluster_.capGrp(), 1e-6);
}

TEST_F(GmTest, UncoordinatedGrantsCanExceedLocalCaps)
{
    // With few hot servers, proportional shares of the group budget can
    // exceed CAP_LOC; a solo SM adopts them verbatim (the correctness
    // hazard). Make server 5 hot and others idle.
    for (sim::VmId v = 0; v < 5; ++v)
        cluster_.placeVm(v, 5);
    GroupManager::Params p;
    p.mode = GroupManager::Mode::Uncoordinated;
    // Uncoordinated deployments pair with DirectPState SMs; rebuild SM 5
    // in that mode to observe cap adoption.
    ServerManager::Params sp;
    sp.mode = ServerManager::Mode::DirectPState;
    sms_[5] = std::make_unique<ServerManager>(cluster_.server(5), nullptr,
                                              cluster_.capLoc(5), sp);
    auto gm = makeGm(p);
    warm(gm, 80);
    gm.step(50);
    // The hot server's grant is clamped only by its *max power*, above
    // its static cap.
    EXPECT_GT(gm.lastGrants()[5], cluster_.capLoc(5));
    EXPECT_GT(sms_[5]->effectiveCap(), cluster_.capLoc(5));
}

TEST_F(GmTest, ViolationExposure)
{
    auto gm = makeGm();
    cluster_.evaluateTick(0);
    gm.observe(0);
    EXPECT_DOUBLE_EQ(gm.epochViolationRate(), 0.0);
    // Saturate everything: group power above CAP_GRP.
    for (sim::VmId j = 0; j < cluster_.numVms(); ++j)
        cluster_.replaceVm(j, nps_test::flatTrace("hot", 1.0, 8));
    cluster_.evaluateTick(1);
    gm.observe(1);
    EXPECT_DOUBLE_EQ(gm.epochViolationRate(), 0.5);
}

TEST_F(GmTest, ConstructionValidation)
{
    std::vector<ServerManager *> all;
    for (auto &sm : sms_)
        all.push_back(sm.get());
    EXPECT_DEATH(GroupManager(cluster_, {}, {}, {}, 100.0, {}),
                 "no servers");
    EXPECT_DEATH(GroupManager(cluster_, {}, {}, all, 0.0, {}),
                 "static cap");
    EXPECT_DEATH(GroupManager(cluster_, {nullptr}, {}, all, 100.0, {}),
                 "null EM");
}

TEST_F(GmTest, ActorInterface)
{
    auto gm = makeGm();
    EXPECT_EQ(gm.name(), "GM");
    EXPECT_EQ(gm.period(), 50u);
    EXPECT_DOUBLE_EQ(gm.staticCap(), cluster_.capGrp());
}

} // namespace
