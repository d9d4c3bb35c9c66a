// Traffic/Topology layer tests: seeded arrival processes are pure
// functions of their constructor arguments (so matrix cells replay
// them identically at any --threads), the closed-loop source
// reproduces the legacy run loops exactly, and a Topology built from
// a SchemeConfig is observationally identical to the SchemeConfig-era
// path on every paper scheme.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/hash.hh"
#include "fault/fault_config.hh"
#include "qei/admission.hh"
#include "qei/planner.hh"
#include "traffic/traffic.hh"
#include "workloads/dpdk_fib.hh"
#include "workloads/workload.hh"

using namespace qei;
using traffic::Arrival;
using traffic::Bursty;
using traffic::ClosedLoop;
using traffic::PoissonOpenLoop;

namespace {

std::vector<Cycles>
ticksOf(const std::vector<Arrival>& arrivals)
{
    std::vector<Cycles> ticks;
    ticks.reserve(arrivals.size());
    for (const Arrival& a : arrivals)
        ticks.push_back(a.tick);
    return ticks;
}

/** One small dpdk world per call — cheap enough for a test body. */
struct Fixture
{
    DpdkFibWorkload workload{std::size_t{2048}, std::size_t{512}};
    World world;
    Prepared prep;

    explicit Fixture(std::size_t queries = 200,
                     const ChipConfig& chip = defaultChip())
        : world(17, chip)
    {
        workload.build(world);
        prep = workload.prepare(world, queries);
    }
};

} // namespace

TEST(Traffic, ClosedLoopArrivesAtTickZero)
{
    ClosedLoop src;
    EXPECT_TRUE(src.closedLoop());
    const auto arrivals = src.schedule(16);
    ASSERT_EQ(arrivals.size(), 16u);
    for (const Arrival& a : arrivals) {
        EXPECT_EQ(a.tick, 0u);
        EXPECT_EQ(a.tenant, 0);
    }
    for (std::size_t i = 0; i < arrivals.size(); ++i)
        EXPECT_EQ(arrivals[i].queryIndex, i);
}

TEST(Traffic, PoissonIsDeterministicPerSeed)
{
    PoissonOpenLoop a(500.0, /*seed=*/7);
    PoissonOpenLoop b(500.0, /*seed=*/7);
    PoissonOpenLoop c(500.0, /*seed=*/8);
    EXPECT_FALSE(a.closedLoop());
    const auto ta = ticksOf(a.schedule(512));
    EXPECT_EQ(ta, ticksOf(b.schedule(512)));
    EXPECT_NE(ta, ticksOf(c.schedule(512)));
    // schedule() is a pure function: asking the same source again
    // replays the same stream (no hidden RNG state carries over).
    EXPECT_EQ(ta, ticksOf(a.schedule(512)));
}

TEST(Traffic, PoissonTicksAreMonotoneWithTheRequestedMeanGap)
{
    PoissonOpenLoop src(300.0, /*seed=*/11);
    const auto arrivals = src.schedule(4000);
    ASSERT_EQ(arrivals.size(), 4000u);
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_GE(arrivals[i].tick, arrivals[i - 1].tick);
    const double meanGap =
        static_cast<double>(arrivals.back().tick) /
        static_cast<double>(arrivals.size() - 1);
    EXPECT_NEAR(meanGap, 300.0, 30.0); // lln: within 10% at n=4000
}

TEST(Traffic, BurstyIsDeterministicAndClustersArrivals)
{
    Bursty a(400.0, /*mean_burst=*/8.0, /*intra_gap=*/1.0, /*seed=*/3);
    Bursty b(400.0, 8.0, 1.0, /*seed=*/3);
    const auto ta = ticksOf(a.schedule(2000));
    EXPECT_EQ(ta, ticksOf(b.schedule(2000)));
    // Same offered load as the Poisson source, burstier spacing: more
    // back-to-back gaps (<= the intra-burst gap) than Poisson has.
    PoissonOpenLoop smooth(400.0, /*seed=*/3);
    const auto tp = ticksOf(smooth.schedule(2000));
    auto tinyGaps = [](const std::vector<Cycles>& t) {
        std::size_t n = 0;
        for (std::size_t i = 1; i < t.size(); ++i)
            if (t[i] - t[i - 1] <= 1)
                ++n;
        return n;
    };
    EXPECT_GT(tinyGaps(ta), 2 * tinyGaps(tp));
}

TEST(Traffic, TenantsRoundRobin)
{
    PoissonOpenLoop src(100.0, /*seed=*/5, /*tenants=*/3);
    const auto arrivals = src.schedule(9);
    for (std::size_t i = 0; i < arrivals.size(); ++i)
        EXPECT_EQ(arrivals[i].tenant, static_cast<int>(i % 3));
}

TEST(Traffic, ClosedLoopSourceMatchesLegacyLoopExactly)
{
    // The acceptance bar for the whole refactor: a Driver fed the
    // ClosedLoop source must reproduce the pre-traffic-layer result
    // bit for bit, on every paper scheme.
    for (const SchemeConfig& scheme : SchemeConfig::allSchemes()) {
        Fixture legacy;
        const QeiRunStats before =
            runQei(legacy.world, legacy.prep, DriverConfig(scheme));

        Fixture routed;
        const QeiRunStats after = runQei(
            routed.world, routed.prep,
            DriverConfig(scheme).withTraffic(
                std::make_shared<ClosedLoop>()));

        EXPECT_EQ(before.cycles, after.cycles) << scheme.name();
        EXPECT_EQ(before.resultChecksum, after.resultChecksum)
            << scheme.name();
        EXPECT_EQ(before.coreInstructions, after.coreInstructions)
            << scheme.name();
        EXPECT_EQ(before.mismatches, after.mismatches);
        EXPECT_EQ(before.breakdownEndToEnd, after.breakdownEndToEnd)
            << scheme.name();
        // Closed loop: no arrival queue, so sojourn == service.
        EXPECT_EQ(after.queueWait.max, 0.0) << scheme.name();
        EXPECT_EQ(after.sojourn.count, after.queries);
    }
}

TEST(Traffic, TopologyRoundTripsSchemeConfig)
{
    for (const SchemeConfig& scheme : SchemeConfig::allSchemes()) {
        const Topology topo(scheme);
        EXPECT_EQ(topo.name(), scheme.name());
        EXPECT_EQ(topo.acceleratorCount(),
                  static_cast<std::size_t>(scheme.accelerators));

        Fixture viaScheme;
        const QeiRunStats a =
            runQei(viaScheme.world, viaScheme.prep,
                   DriverConfig(scheme));
        Fixture viaTopo;
        const QeiRunStats b =
            runQei(viaTopo.world, viaTopo.prep, DriverConfig(topo));
        EXPECT_EQ(a.cycles, b.cycles) << scheme.name();
        EXPECT_EQ(a.resultChecksum, b.resultChecksum) << scheme.name();
        EXPECT_EQ(a.memAccesses, b.memAccesses) << scheme.name();
    }
}

TEST(Traffic, TopologyPlacementsMirrorHistoricalLayout)
{
    const Topology cha(SchemeConfig::chaTlb());
    ASSERT_EQ(cha.placements().size(), cha.acceleratorCount());
    for (std::size_t i = 0; i < cha.placements().size(); ++i) {
        EXPECT_EQ(cha.placements()[i].name,
                  "accel" + std::to_string(i));
        EXPECT_EQ(cha.placements()[i].tile, static_cast<int>(i));
    }
    const Topology dev(SchemeConfig::deviceDirect());
    ASSERT_EQ(dev.placements().size(), 1u);
    EXPECT_EQ(dev.placements()[0].tile, dev.params().deviceTile);
}

TEST(Traffic, CustomRouteOverridesPlacementPolicy)
{
    Fixture f{60};
    Topology topo = Topology(SchemeConfig::chaTlb())
                        .named("cha-tlb-pinned")
                        .withRoute([](Addr, int, const auto&) {
                            return 0; // pin everything to accel0
                        });
    const QeiRunStats stats =
        runQei(f.world, f.prep, DriverConfig(topo));
    EXPECT_EQ(stats.mismatches, 0u);
    EXPECT_EQ(stats.queries, f.prep.jobs.size());
}

TEST(Traffic, OpenLoopRunIsDeterministicAndMeasuresSojourn)
{
    // Generous mean gap -> the queue never backs up, queue-wait stays
    // small, and every query still completes correctly.
    auto run = [](std::uint64_t seed) {
        Fixture f{150};
        return runQei(f.world, f.prep,
                      DriverConfig(SchemeConfig::coreIntegrated())
                          .withTraffic(std::make_shared<PoissonOpenLoop>(
                              4000.0, seed)));
    };
    const QeiRunStats a = run(21);
    const QeiRunStats b = run(21);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.resultChecksum, b.resultChecksum);
    EXPECT_EQ(a.sojourn.p99, b.sojourn.p99);

    EXPECT_EQ(a.mismatches, 0u);
    EXPECT_EQ(a.queries, 150u);
    EXPECT_EQ(a.sojourn.count, 150u);
    EXPECT_GT(a.sojourn.p50, 0.0);
    EXPECT_LE(a.sojourn.p50, a.sojourn.p99);
    EXPECT_LE(a.sojourn.p99, a.sojourn.p999);
    // At ~2.5% offered load the line is almost always idle.
    EXPECT_LT(a.queueWait.mean, a.service.mean);

    const QeiRunStats c = run(22);
    EXPECT_NE(a.cycles, c.cycles);
}

TEST(TrafficDeathTest, ZeroPollBatchIsRejected)
{
    // A poll batch of zero issues nothing per round, so the QUERY_NB
    // loop would never finish.
    EXPECT_DEATH(
        {
            Fixture f(50);
            runQei(f.world, f.prep,
                   DriverConfig(SchemeConfig::chaTlb())
                       .withMode(QueryMode::NonBlocking)
                       .withPollBatch(0));
        },
        "QUERY_NB poll batch must be at least 1");
}

TEST(TrafficDeathTest, OpenLoopNonBlockingIsRejected)
{
    // The serving loop issues QUERY_B only; without the check an
    // open-loop QUERY_NB config reports a blocking run.
    EXPECT_DEATH(
        {
            Fixture f(50);
            runQei(f.world, f.prep,
                   DriverConfig(SchemeConfig::chaTlb())
                       .withMode(QueryMode::NonBlocking)
                       .withTraffic(
                           std::make_shared<PoissonOpenLoop>(60.0, 4)));
        },
        "QUERY_NB requires a closed-loop source");
}

TEST(Traffic, OpenLoopSaturationRaisesQueueWait)
{
    auto p99At = [](double mean_gap) {
        Fixture f{200};
        const QeiRunStats s =
            runQei(f.world, f.prep,
                   DriverConfig(SchemeConfig::coreIntegrated())
                       .withTraffic(std::make_shared<PoissonOpenLoop>(
                           mean_gap, 9)));
        return s.queueWait.p99;
    };
    // Arrivals far faster than service vs far slower: queueing theory
    // in one assert.
    EXPECT_GT(p99At(10.0), p99At(5000.0));
}

namespace {

/** What one pinned run must reproduce exactly. */
struct PinnedRun
{
    Cycles cycles;
    std::uint64_t checksum;
    double p50, p99, p999;
    double maxInFlight;
    std::uint64_t coreInstructions;
    std::uint64_t statsFnv;
};

PinnedRun
pinOf(const QeiRunStats& s, const std::string& statsJson)
{
    return {s.cycles,
            s.resultChecksum,
            s.sojourn.p50,
            s.sojourn.p99,
            s.sojourn.p999,
            s.maxInFlightObserved,
            s.coreInstructions,
            fnv1a64(statsJson.data(), statsJson.size())};
}

void
expectPinned(const std::string& cell, const PinnedRun& got,
             const PinnedRun& want)
{
    EXPECT_EQ(got.cycles, want.cycles) << cell;
    EXPECT_EQ(got.checksum, want.checksum) << cell;
    EXPECT_EQ(got.p50, want.p50) << cell;
    EXPECT_EQ(got.p99, want.p99) << cell;
    EXPECT_EQ(got.p999, want.p999) << cell;
    EXPECT_EQ(got.maxInFlight, want.maxInFlight) << cell;
    EXPECT_EQ(got.coreInstructions, want.coreInstructions) << cell;
    EXPECT_EQ(got.statsFnv, want.statsFnv) << cell;
}

} // namespace

TEST(Traffic, OpenLoopAndMultiCoreRunsArePinned)
{
    // Constants computed before the open-loop, serving and blocking
    // loops shared one submit-to-retire kernel: every figure of a
    // plain (single-tenant, admission None) open-loop run, including
    // the shape and values of its stats tree, must not move.
    struct OpenCell
    {
        const char* name;
        std::shared_ptr<traffic::TrafficSource> source;
        const char* faults;
        PinnedRun want;
    };
    const OpenCell cells[] = {
        {"poisson", std::make_shared<PoissonOpenLoop>(60.0, 4), "",
         {16994, 0x9275a651f1fb5de7ULL, 167.81679389312978,
          250.18181818181819, 278.39999999999964, 8, 4500,
          0x7c83f94bf56437dfULL}},
        {"bursty", std::make_shared<Bursty>(60.0, 8.0, 1.0, 4), "",
         {10835, 0x9275a651f1fb5de7ULL, 194.85714285714286, 640,
          699.19999999999982, 14, 4500, 0x83b26430a0b5d54fULL}},
        {"diurnal",
         std::make_shared<traffic::Diurnal>(60.0, 0.5, 20000.0, 4), "",
         {15547, 0x9275a651f1fb5de7ULL, 167.25, 250.18181818181819,
          278.39999999999964, 10, 4500, 0x193ec3e473705856ULL}},
        {"poisson+faults", std::make_shared<PoissonOpenLoop>(60.0, 4),
         "pf=0.05,flush=3000,seed=9",
         {16994, 0x9275a651f1fb5de7ULL, 172.48780487804879,
          409.60000000000002, 470.39999999999964, 9, 4500,
          0x5f31a4b5f80074f4ULL}},
    };
    for (const OpenCell& c : cells) {
        ChipConfig chip = defaultChip();
        chip.faults = parseFaultSpec(c.faults);
        Fixture f{300, chip};
        std::string statsJson;
        const QeiRunStats s =
            runQei(f.world, f.prep,
                   DriverConfig(SchemeConfig::chaTlb())
                       .withTraffic(c.source)
                       .captureStats(&statsJson));
        EXPECT_EQ(s.mismatches, 0u) << c.name;
        if (c.faults[0] != '\0') {
            EXPECT_GT(s.swFallbacks, 0u) << c.name;
        }
        expectPinned(c.name, pinOf(s, statsJson), c.want);
    }

    // The closed-loop blocking loop, with faults so the software
    // re-run delays retirement on some queries.
    {
        ChipConfig chip = defaultChip();
        chip.faults = parseFaultSpec("pf=0.05,flush=3000,seed=9");
        Fixture f{300, chip};
        std::string statsJson;
        const QeiRunStats s = runQei(
            f.world, f.prep,
            DriverConfig(SchemeConfig::chaTlb()).captureStats(&statsJson));
        EXPECT_EQ(s.mismatches, 0u);
        EXPECT_GT(s.swFallbacks, 0u);
        expectPinned("closed+faults", pinOf(s, statsJson),
                     {4075, 0x9275a651f1fb5de7ULL, 170.48275862068965,
                      448, 507.19999999999982, 14, 4500,
                      0x3b08c672d671f449ULL});
    }

    // runBlockingMultiCore keeps two deliberate differences from the
    // single-core loop: its issue gap has no branch-mispredict term
    // and it reports no in-flight peak. A profile with a mispredict
    // per op makes the first visible in cycles.
    const std::pair<int, PinnedRun> multi[] = {
        {1,
         {6883, 0x9275a651f1fb5de7ULL, 0, 0, 0, 0, 4500,
          0xf925f10dd995df4eULL}},
        {4,
         {1898, 0x9275a651f1fb5de7ULL, 0, 0, 0, 0, 4500,
          0xb48988c2004d7758ULL}},
    };
    for (const auto& [cores, want] : multi) {
        Fixture f{300};
        f.prep.profile.nonQueryMispredictsPerOp = 1;
        f.world.resetTiming();
        f.world.warmLlc();
        QeiSystem system(f.world.chip, f.world.events, f.world.hierarchy,
                         f.world.vm, f.world.firmware,
                         SchemeConfig::chaTlb());
        const QeiRunStats s =
            system.runBlockingMultiCore(f.prep.jobs, cores, f.prep.profile);
        EXPECT_EQ(s.mismatches, 0u) << cores << " cores";
        EXPECT_EQ(s.maxInFlightObserved, 0.0) << cores << " cores";
        const std::string statsJson = system.dumpStatsJson();
        expectPinned(std::to_string(cores) + " cores",
                     pinOf(s, statsJson), want);
    }
}

namespace {

/** Counters the store-like, batched, planner and degraded paths fill
 *  beyond PinnedRun. */
struct PinnedCounters
{
    std::uint64_t mismatches;
    std::uint64_t swFallbacks;
    std::uint64_t faultsInjected;
    std::uint64_t qstBackoffs;
    std::uint64_t plannerDecisions;
    std::uint64_t plannerCoreExecutes;
    std::uint64_t batches;
    std::uint64_t batchBackoffs;
    std::uint64_t batchHeaderHits;
    std::uint64_t batchLineHits;
    std::uint64_t admittedChecksum;
};

PinnedCounters
countersOf(const QeiRunStats& s)
{
    return {s.mismatches,       s.swFallbacks,
            s.faultsInjected,   s.qstBackoffs,
            s.plannerDecisions, s.plannerCoreExecutes,
            s.batches,          s.batchBackoffs,
            s.batchHeaderHits,  s.batchLineHits,
            s.admittedChecksum};
}

void
expectCounters(const std::string& cell, const PinnedCounters& got,
               const PinnedCounters& want)
{
    EXPECT_EQ(got.mismatches, want.mismatches) << cell;
    EXPECT_EQ(got.swFallbacks, want.swFallbacks) << cell;
    EXPECT_EQ(got.faultsInjected, want.faultsInjected) << cell;
    EXPECT_EQ(got.qstBackoffs, want.qstBackoffs) << cell;
    EXPECT_EQ(got.plannerDecisions, want.plannerDecisions) << cell;
    EXPECT_EQ(got.plannerCoreExecutes, want.plannerCoreExecutes)
        << cell;
    EXPECT_EQ(got.batches, want.batches) << cell;
    EXPECT_EQ(got.batchBackoffs, want.batchBackoffs) << cell;
    EXPECT_EQ(got.batchHeaderHits, want.batchHeaderHits) << cell;
    EXPECT_EQ(got.batchLineHits, want.batchLineHits) << cell;
    EXPECT_EQ(got.admittedChecksum, want.admittedChecksum) << cell;
}

} // namespace

TEST(Traffic, StoreLikeCoreExecutedAndDegradedRunsArePinned)
{
    // Constants computed before QUERY_NB, QUERY_BATCH, planner core
    // execution and shed-to-core degradation shared one run frame,
    // one accelerator retire path and one core-execute path.
    const char* kFaults = "pf=0.05,flush=3000,seed=9";
    auto planned = [] {
        // Prices the software walk below CHA-TLB, so the planner
        // keeps every dpdk query on the issuing core.
        auto model = std::make_shared<CostModel>();
        model->set("dpdk", {1.0, {{"CHA-TLB", 100.0}}});
        PlannerConfig cfg = PlannerConfig::cost("dpdk");
        cfg.model = model;
        return cfg;
    };
    const BatchConfig batch8{8, BatchReorder::ByKeyLocality, true};
    AdmissionConfig bucket;
    bucket.policy = AdmissionPolicy::TokenBucket;
    bucket.tokensPerKCycle = 25.0;
    bucket.bucketDepth = 4.0;
    bucket.degradeToCore = true;

    struct Cell
    {
        const char* name;
        const char* faults;
        DriverConfig config;
        PinnedRun want;
        PinnedCounters counters;
    };
    const DriverConfig cha(SchemeConfig::chaTlb());
    const DriverConfig nb =
        DriverConfig(cha).withMode(QueryMode::NonBlocking);
    const SchemeConfig core = SchemeConfig::coreIntegrated();
    SchemeConfig tinyQst = core;
    tinyQst.qstEntries = 2;
    const Cell cells[] = {
        {"nb32", "", DriverConfig(nb).withPollBatch(32),
         {3340, 0x9275a651f1fb5de7ULL, 174.78620689655173,
          253.86666666666667, 283.19999999999982, 32, 4984,
          0x94386afbfeb47341ULL},
         {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
        {"nb7", "", DriverConfig(nb).withPollBatch(7),
         {9991, 0x9275a651f1fb5de7ULL, 174.78620689655173,
          253.71428571428572, 283.19999999999982, 7, 5580,
          0xabba318bd1bf83afULL},
         {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
        {"nb32+faults", kFaults, DriverConfig(nb).withPollBatch(32),
         {4116, 0x9275a651f1fb5de7ULL, 177.85507246376812,
          410.66666666666669, 443.19999999999982, 32, 5044,
          0xbc27911ced9f6abaULL},
         {0, 19, 19, 0, 0, 0, 0, 0, 0, 0, 0}},
        {"nb7+faults", kFaults, DriverConfig(nb).withPollBatch(7),
         {12428, 0x9275a651f1fb5de7ULL, 177.85507246376812,
          410.66666666666669, 443.19999999999982, 7, 5772,
          0x3bfa2766d5679772ULL},
         {0, 19, 19, 0, 0, 0, 0, 0, 0, 0, 0}},
        {"batch8", "", DriverConfig(cha).withBatch(batch8),
         {1459, 0x9275a651f1fb5de7ULL, 201.80645161290323, 384,
          412.7999999999999, 0, 4620, 0x2ff6c8f788a28e25ULL},
         {0, 0, 0, 0, 0, 0, 48, 0, 252, 0, 0}},
        {"batch8+faults", kFaults, DriverConfig(cha).withBatch(batch8),
         {1459, 0x9275a651f1fb5de7ULL, 205.09090909090909, 448,
          566.39999999999964, 0, 4620, 0x2a275ab2a1643e33ULL},
         {0, 19, 19, 0, 0, 0, 48, 0, 234, 0, 0}},
        {"planned-b", "", DriverConfig(cha).withPlanner(planned()),
         {35884, 0x9275a651f1fb5de7ULL, 116.23529411764706,
          242.28571428571428, 254.62857142857138, 14, 4500,
          0xf17e91e2d7934181ULL},
         {0, 0, 0, 0, 300, 300, 0, 0, 0, 0, 0}},
        {"planned-nb", "", DriverConfig(nb).withPlanner(planned()),
         {36047, 0x9275a651f1fb5de7ULL, 116.23529411764706,
          242.28571428571428, 254.62857142857138, 32, 4840,
          0xbfcf74f0a764ac51ULL},
         {0, 0, 0, 0, 300, 300, 0, 0, 0, 0, 0}},
        {"planned-batch", "",
         DriverConfig(cha).withBatch(batch8).withPlanner(planned()),
         {35959, 0x9275a651f1fb5de7ULL, 116.23529411764706,
          242.28571428571428, 254.62857142857138, 0, 4504,
          0xf17e91e2d7934181ULL},
         {0, 0, 0, 0, 300, 300, 0, 0, 0, 0, 0}},
        {"nb64+qst2", "",
         DriverConfig(tinyQst)
             .withMode(QueryMode::NonBlocking)
             .withPollBatch(64),
         {32498, 0x9275a651f1fb5de7ULL, 3120, 6784, 6971.1999999999998,
          64, 7308, 0x393a8a4568d8287aULL},
         {0, 0, 0, 14788, 0, 0, 0, 0, 0, 0, 0}},
        {"batch8+core", "", DriverConfig(core).withBatch(batch8),
         {6453, 0x9275a651f1fb5de7ULL, 2688, 5200, 5270.3999999999996,
          0, 5000, 0xc5dd55731a5c68dULL},
         {0, 0, 0, 0, 0, 0, 38, 779, 262, 0, 0}},
        {"bucket+degrade", "",
         DriverConfig(core)
             .withTraffic(std::make_shared<PoissonOpenLoop>(20.0, 13))
             .withAdmission(bucket),
         {17892, 0x9275a651f1fb5de7ULL, 217.64383561643837,
          313.28000000000003, 378.78399999999965, 8, 2445,
          0x9062ec5ed0e3a15ULL},
         {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x31ea03dc006b0da1ULL}},
    };
    for (const Cell& c : cells) {
        ChipConfig chip = defaultChip();
        chip.faults = parseFaultSpec(c.faults);
        Fixture f{300, chip};
        std::string statsJson;
        DriverConfig config = c.config;
        const QeiRunStats s =
            runQei(f.world, f.prep, config.captureStats(&statsJson));
        expectPinned(c.name, pinOf(s, statsJson), c.want);
        expectCounters(c.name, countersOf(s), c.counters);
    }
}
