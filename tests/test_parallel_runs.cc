/**
 * Determinism contract of the parallel experiment engine: running the
 * (workload x scheme) matrix at --threads 8 must produce exactly the
 * same simulated numbers as --threads 1, because every cell owns a
 * private World rebuilt from the same seed.
 */

#include <gtest/gtest.h>

#include "bench_util.hh"

using namespace qei;
using namespace qei::bench;

namespace {

void
expectSameBaseline(const CoreRunResult& a, const CoreRunResult& b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_DOUBLE_EQ(a.backendStallCycles, b.backendStallCycles);
    EXPECT_DOUBLE_EQ(a.frontendStallCycles, b.frontendStallCycles);
}

void
expectSameStats(const QeiRunStats& a, const QeiRunStats& b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_EQ(a.coreInstructions, b.coreInstructions);
    EXPECT_EQ(a.mismatches, b.mismatches);
    EXPECT_EQ(a.exceptions, b.exceptions);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
    EXPECT_EQ(a.microOps, b.microOps);
    EXPECT_EQ(a.remoteCompares, b.remoteCompares);
    EXPECT_DOUBLE_EQ(a.avgQstOccupancy, b.avgQstOccupancy);
    EXPECT_DOUBLE_EQ(a.maxInFlightObserved, b.maxInFlightObserved);
    // The latency breakdown is integer-total based, so it must also be
    // bit-identical across thread counts.
    EXPECT_EQ(a.breakdownQueries, b.breakdownQueries);
    EXPECT_EQ(a.breakdownEndToEnd, b.breakdownEndToEnd);
    ASSERT_EQ(a.breakdownCycles.size(), b.breakdownCycles.size());
    for (const auto& [component, cycles] : a.breakdownCycles) {
        ASSERT_TRUE(b.breakdownCycles.count(component)) << component;
        EXPECT_EQ(cycles, b.breakdownCycles.at(component))
            << component;
    }
}

/** Two workloads keep the test fast while still crossing workloads. */
std::vector<WorkloadFactory>
testFactories()
{
    auto all = makeWorkloadFactories();
    return {all[0], all[1]};
}

MatrixOptions
testMatrix(int threads)
{
    MatrixOptions matrix;
    matrix.queries = 300; // small but enough to exercise all schemes
    matrix.threads = threads;
    return matrix;
}

} // namespace

TEST(ParallelRuns, EightThreadsMatchesSerial)
{
    const auto serial =
        runWorkloadMatrix(testFactories(), testMatrix(1));
    const auto parallel =
        runWorkloadMatrix(testFactories(), testMatrix(8));

    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.size(), 2u);
    for (std::size_t w = 0; w < serial.size(); ++w) {
        const WorkloadRun& s = serial[w];
        const WorkloadRun& p = parallel[w];
        EXPECT_EQ(s.name, p.name);
        expectSameBaseline(s.baseline, p.baseline);
        ASSERT_EQ(s.schemes.size(), p.schemes.size());
        for (const auto& [scheme, stats] : s.schemes) {
            ASSERT_TRUE(p.schemes.count(scheme))
                << "scheme missing in parallel run: " << scheme;
            expectSameStats(stats, p.schemes.at(scheme));
        }
    }
}

TEST(ParallelRuns, MatrixCoversAllSchemes)
{
    const auto runs = runWorkloadMatrix(testFactories(), testMatrix(4));
    ASSERT_EQ(runs.size(), 2u);
    for (const WorkloadRun& run : runs) {
        EXPECT_EQ(run.schemes.size(), SchemeConfig::allSchemes().size());
        EXPECT_GT(run.baseline.queries, 0u);
        for (const auto& [scheme, stats] : run.schemes) {
            EXPECT_EQ(stats.mismatches, 0u)
                << run.name << " / " << scheme;
            EXPECT_GT(run.speedup(stats), 0.0);
        }
    }
}

TEST(ParallelRuns, TraceEventCountsMatchAcrossThreadCounts)
{
    // Timeline capture must not perturb determinism: every per-cell
    // trace at --threads 8 carries exactly the events of --threads 1.
    MatrixOptions serial = testMatrix(1);
    serial.captureTrace = true;
    MatrixOptions parallel = testMatrix(8);
    parallel.captureTrace = true;

    const auto a = runWorkloadMatrix(testFactories(), serial);
    const auto b = runWorkloadMatrix(testFactories(), parallel);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t w = 0; w < a.size(); ++w) {
        ASSERT_EQ(a[w].traces.size(), b[w].traces.size());
        // Baseline + one per scheme, all armed.
        EXPECT_EQ(a[w].traces.size(),
                  1 + SchemeConfig::allSchemes().size());
        for (const auto& [cell, buf] : a[w].traces) {
            ASSERT_TRUE(b[w].traces.count(cell))
                << a[w].name << " / " << cell;
            const trace::TraceBuffer& other = b[w].traces.at(cell);
            EXPECT_EQ(buf.emitted, other.emitted)
                << a[w].name << " / " << cell;
            EXPECT_EQ(buf.events.size(), other.events.size())
                << a[w].name << " / " << cell;
            EXPECT_GT(buf.emitted, 0u) << a[w].name << " / " << cell;
        }
    }
}

TEST(ParallelRuns, HostPerfFieldsPopulated)
{
    const auto runs = runWorkloadMatrix(testFactories(), testMatrix(2));
    for (const WorkloadRun& run : runs) {
        EXPECT_GE(run.hostWallMs, 0.0);
        // One wall-time sample for the baseline plus one per scheme.
        EXPECT_EQ(run.cellWallMs.size(),
                  1 + SchemeConfig::allSchemes().size());
        EXPECT_TRUE(run.cellWallMs.count("baseline"));
    }
}
