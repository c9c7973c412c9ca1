/**
 * @file
 * The fault-site registry and plan machinery (base/faultinject):
 * site catalog integrity, plan parsing and validation, one-shot
 * k-th-hit semantics, and the three firing entry points.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <set>
#include <string>
#include <vector>

#include "base/faultinject.hh"
#include "base/status.hh"

namespace lkmm::faultinject
{
namespace
{

class FaultPlanTest : public ::testing::Test
{
  protected:
    void TearDown() override { reset(); }
};

TEST(FaultRegistry, HasAtLeast25DistinctSites)
{
    std::set<std::string> ids;
    for (const SiteInfo &info : siteRegistry())
        ids.insert(info.id);
    EXPECT_GE(ids.size(), 25u);
    EXPECT_EQ(ids.size(), siteRegistry().size()) << "duplicate site id";
}

TEST(FaultRegistry, EverySiteHasKindsAndDescription)
{
    for (const SiteInfo &info : siteRegistry()) {
        EXPECT_NE(info.kinds, 0u) << info.id;
        EXPECT_NE(std::string(info.description), "") << info.id;
    }
}

TEST(FaultRegistry, FindSiteByIdAndMiss)
{
    const SiteInfo *write = findSite(site::kJournalWrite);
    ASSERT_NE(write, nullptr);
    EXPECT_TRUE(write->supports(FaultKind::TornWrite));
    EXPECT_EQ(findSite("no-such-site"), nullptr);
}

TEST(FaultRegistry, KindNamesRoundTrip)
{
    for (int k = 0; k < kNumFaultKinds; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        const auto back = faultKindFromName(faultKindName(kind));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, kind);
    }
    EXPECT_FALSE(faultKindFromName("nope").has_value());
}

TEST(FaultPlanParse, RoundTripsSpec)
{
    const FaultPlan plan = FaultPlan::parse("journal-write:2:torn-write:7");
    EXPECT_EQ(plan.site, site::kJournalWrite);
    EXPECT_EQ(plan.hit, 2u);
    EXPECT_EQ(plan.kind, FaultKind::TornWrite);
    EXPECT_EQ(plan.tornBytes, 7u);
    EXPECT_EQ(plan.toString(), "journal-write:2:torn-write:7");
}

TEST(FaultPlanParse, RejectsUnknownSiteKindAndUnsupportedCombos)
{
    EXPECT_THROW(FaultPlan::parse("no-such-site:1:error"), StatusError);
    EXPECT_THROW(FaultPlan::parse("journal-write:1:frob"), StatusError);
    EXPECT_THROW(FaultPlan::parse("journal-write:0:error"), StatusError);
    // journal-recover supports error only, not torn-write.
    EXPECT_THROW(FaultPlan::parse("journal-recover:1:torn-write:3"),
                 StatusError);
}

TEST_F(FaultPlanTest, FiresOnExactlyTheKthHit)
{
    FaultPlan plan;
    plan.site = site::kBatchItem;
    plan.hit = 3;
    plan.kind = FaultKind::Error;
    setPlan(plan);

    checkSite(site::kBatchItem); // hit 1
    checkSite(site::kBatchItem); // hit 2
    EXPECT_FALSE(planFired());
    EXPECT_THROW(checkSite(site::kBatchItem), StatusError); // hit 3
    EXPECT_TRUE(planFired());
    // One-shot: the plan deactivated when it fired.
    checkSite(site::kBatchItem);
    EXPECT_TRUE(planFired());
}

TEST_F(FaultPlanTest, OtherSitesDoNotAdvanceTheCounter)
{
    FaultPlan plan;
    plan.site = site::kJournalCreate;
    plan.kind = FaultKind::Error;
    setPlan(plan);
    checkSite(site::kBatchItem);
    checkSite(site::kJsonSerialize);
    EXPECT_EQ(planHits(), 0u);
    EXPECT_THROW(checkSite(site::kJournalCreate), StatusError);
}

TEST_F(FaultPlanTest, FiredFlagSurvivesClearPlan)
{
    FaultPlan plan;
    plan.site = site::kBatchItem;
    plan.kind = FaultKind::Error;
    setPlan(plan);
    EXPECT_THROW(checkSite(site::kBatchItem), StatusError);
    clearPlan();
    EXPECT_TRUE(planFired());
    // setPlan starts a fresh schedule: flag cleared.
    setPlan(plan);
    EXPECT_FALSE(planFired());
}

TEST_F(FaultPlanTest, EnomemThrowsBadAlloc)
{
    FaultPlan plan;
    plan.site = site::kBatchAlloc;
    plan.kind = FaultKind::Enomem;
    setPlan(plan);
    EXPECT_THROW(checkSite(site::kBatchAlloc), std::bad_alloc);
}

TEST_F(FaultPlanTest, CheckSiteErrnoMapsKindsToErrnos)
{
    FaultPlan plan;
    plan.site = site::kSubprocessRead;
    plan.kind = FaultKind::Eintr;
    setPlan(plan);
    EXPECT_EQ(checkSiteErrno(site::kSubprocessRead, EIO), EINTR);
    EXPECT_EQ(checkSiteErrno(site::kSubprocessRead, EIO), 0) << "one-shot";

    plan.kind = FaultKind::Error;
    setPlan(plan);
    EXPECT_EQ(checkSiteErrno(site::kSubprocessRead, EIO), EIO)
        << "Error takes the caller's designated errno";
}

TEST_F(FaultPlanTest, CheckTornWriteReturnsBytesOnlyForTornPlans)
{
    FaultPlan plan;
    plan.site = site::kJournalWrite;
    plan.kind = FaultKind::TornWrite;
    plan.tornBytes = 13;
    setPlan(plan);
    const std::optional<std::uint32_t> torn =
        checkTornWrite(site::kJournalWrite);
    ASSERT_TRUE(torn.has_value());
    EXPECT_EQ(*torn, 13u);
    EXPECT_FALSE(checkTornWrite(site::kJournalWrite).has_value());

    plan.kind = FaultKind::Error;
    setPlan(plan);
    EXPECT_THROW(checkTornWrite(site::kJournalWrite), StatusError)
        << "non-torn kinds at a torn-capable site fire normally";
}

TEST_F(FaultPlanTest, InactivePlanIsFreeOfSideEffects)
{
    // No plan set: every entry point is a no-op.
    checkSite(site::kJournalWrite);
    EXPECT_EQ(checkSiteErrno(site::kSubprocessRead, EIO), 0);
    EXPECT_FALSE(checkTornWrite(site::kJournalWrite).has_value());
    EXPECT_FALSE(planFired());
}

TEST(FaultPlanParse, ParseListSplitsTrimsAndSkipsEmptyElements)
{
    const std::vector<FaultPlan> plans = FaultPlan::parseList(
        "journal-write:2:torn-write:7, batch-item:1:error,");
    ASSERT_EQ(plans.size(), 2u);
    EXPECT_EQ(plans[0].toString(), "journal-write:2:torn-write:7");
    EXPECT_EQ(plans[1].toString(), "batch-item:1:error");
    EXPECT_THROW(
        FaultPlan::parseList("batch-item:1:error,no-such-site:1:error"),
        StatusError);
}

TEST_F(FaultPlanTest, ConcurrentPlansFireIndependently)
{
    FaultPlan a;
    a.site = site::kBatchItem;
    a.hit = 2;
    FaultPlan b;
    b.site = site::kJournalCreate;
    setPlans({a, b});

    checkSite(site::kBatchItem); // a: hit 1 of 2
    EXPECT_FALSE(planFired());
    EXPECT_THROW(checkSite(site::kJournalCreate), StatusError);
    EXPECT_TRUE(planFired()) << "b fired";
    // b's firing removed only b: a's schedule continues.
    EXPECT_THROW(checkSite(site::kBatchItem), StatusError);
    // Both one-shot plans are now gone.
    checkSite(site::kBatchItem);
    checkSite(site::kJournalCreate);
}

TEST_F(FaultPlanTest, SetPlansReplacesAndEmptyListDeactivates)
{
    FaultPlan a;
    a.site = site::kBatchItem;
    setPlans({a});
    setPlans({}); // replace with nothing: fully disarmed
    checkSite(site::kBatchItem);
    EXPECT_FALSE(planFired());
}

} // namespace
} // namespace lkmm::faultinject
