/**
 * Determinism contract of the parallel experiment engine: running the
 * (workload x scheme) matrix at --threads 8 must produce exactly the
 * same simulated numbers as --threads 1, because every cell owns a
 * private World rebuilt from the same seed.
 */

#include <gtest/gtest.h>

#include "bench_util.hh"
#include "metrics/metrics.hh"

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
    EXPECT_EQ(a.resultChecksum, b.resultChecksum);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.swFallbacks, b.swFallbacks);
    EXPECT_EQ(a.swFallbackCycles, b.swFallbackCycles);
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

void
expectSameActivity(const ChipActivity& a, const ChipActivity& b)
{
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.dramAccesses, b.dramAccesses);
    EXPECT_EQ(a.nocBytes, b.nocBytes);
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
    // Timeline capture must not perturb determinism: every recorded
    // cell at --threads 8 carries exactly the events of --threads 1.
    metrics::runtimeConfig().trace = true;
    runWorkloadMatrix(testFactories(), testMatrix(1));
    const auto a = metrics::Recorder::global().drain();
    runWorkloadMatrix(testFactories(), testMatrix(8));
    const auto b = metrics::Recorder::global().drain();
    metrics::runtimeConfig().trace = false;

    // Baseline + one per scheme for every workload, all traced.
    EXPECT_EQ(a.size(), testFactories().size() *
                            (1 + SchemeConfig::allSchemes().size()));
    ASSERT_EQ(a.size(), b.size());
    for (const auto& [label, cell] : a) {
        ASSERT_TRUE(b.count(label)) << label;
        const metrics::Recorder::Cell& other = b.at(label);
        ASSERT_TRUE(cell.trace && other.trace) << label;
        EXPECT_EQ(cell.trace->emitted, other.trace->emitted) << label;
        EXPECT_EQ(cell.trace->events.size(), other.trace->events.size())
            << label;
        EXPECT_GT(cell.trace->emitted, 0u) << label;
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

TEST(ParallelRuns, CellsDoNotDependOnTheirNeighbours)
{
    // paper_matrix projects Figs. 1, 9 and 11 from the full 30-cell
    // matrix, where their harnesses used to run only their own cells.
    // That is sound only if a cell's numbers do not depend on which
    // other cells run beside it, at any thread count.
    const auto factories = makeWorkloadFactories();
    MatrixOptions full;
    full.queries = 60;
    full.threads = 4;
    const auto reference = runWorkloadMatrix(factories, full);
    ASSERT_EQ(reference.size(), factories.size());

    const std::vector<std::vector<Topology>> subsets{
        {SchemeConfig::chaTlb(), SchemeConfig::chaNoTlb(),
         SchemeConfig::coreIntegrated()},
        {}};
    for (const std::vector<Topology>& topologies : subsets) {
        for (const int threads : {1, 4}) {
            MatrixOptions matrix = full;
            matrix.topologies = topologies;
            matrix.threads = threads;
            const auto runs = runWorkloadMatrix(factories, matrix);
            ASSERT_EQ(runs.size(), reference.size());
            for (std::size_t w = 0; w < runs.size(); ++w) {
                const WorkloadRun& ref = reference[w];
                const WorkloadRun& run = runs[w];
                SCOPED_TRACE(run.name + " with " +
                             std::to_string(topologies.size()) +
                             " topologies at --threads " +
                             std::to_string(threads));
                EXPECT_EQ(run.name, ref.name);
                expectSameBaseline(run.baseline, ref.baseline);
                expectSameActivity(run.activity.at("baseline"),
                                   ref.activity.at("baseline"));
                ASSERT_EQ(run.schemes.size(), topologies.size());
                for (const auto& [scheme, stats] : run.schemes) {
                    SCOPED_TRACE(scheme);
                    expectSameStats(stats, ref.schemes.at(scheme));
                    expectSameActivity(run.activity.at(scheme),
                                       ref.activity.at(scheme));
                }
            }
        }
    }
}
