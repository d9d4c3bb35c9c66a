/**
 * Golden test for the benchmark `--json` path: run a small workload
 * through the same runWorkloadMatrix -> toJson pipeline fig07_speedup
 * uses and validate the artifact schema against the in-memory results.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "bench_util.hh"

using namespace qei;
using namespace qei::bench;

namespace {

/** One workload's matrix row: baseline plus @p topologies. */
WorkloadRun
runFirstWorkload(std::size_t queries, std::vector<Topology> topologies)
{
    MatrixOptions matrix;
    matrix.queries = queries;
    matrix.topologies = std::move(topologies);
    matrix.seed = 42;
    return runWorkloadMatrix({makeWorkloadFactories().front()}, matrix)
        .front();
}

/** One small run shared by every test in this file. */
const WorkloadRun&
goldenRun()
{
    static const WorkloadRun run =
        runFirstWorkload(400, Topology::allPaper());
    return run;
}

} // namespace

TEST(BenchJson, ParseBenchArgsRecognisesJsonFlag)
{
    char prog[] = "bench";
    char flag[] = "--json";
    char path[] = "out.json";
    char* argv1[] = {prog, flag, path};
    EXPECT_EQ(parseBenchArgs(3, argv1).jsonPath, "out.json");

    char combined[] = "--json=other.json";
    char* argv2[] = {prog, combined};
    EXPECT_EQ(parseBenchArgs(2, argv2).jsonPath, "other.json");

    char* argv3[] = {prog};
    EXPECT_TRUE(parseBenchArgs(1, argv3).jsonPath.empty());
}

TEST(BenchJson, RunIsSane)
{
    const WorkloadRun& run = goldenRun();
    EXPECT_GT(run.baseline.cycles, 0u);
    EXPECT_EQ(run.baseline.queries, 400u);
    for (const auto& name : schemeNames()) {
        ASSERT_TRUE(run.schemes.count(name)) << name;
        const QeiRunStats& s = run.schemes.at(name);
        EXPECT_EQ(s.mismatches, 0u) << name;
        EXPECT_EQ(s.queries, 400u) << name;
        EXPECT_GT(run.speedup(name), 0.0) << name;
    }
}

TEST(BenchJson, WorkloadRunSchema)
{
    const Json doc = toJson(goldenRun());
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("workload").asString(), goldenRun().name);

    const Json& baseline = doc.at("baseline");
    for (const char* key :
         {"cycles", "instructions", "loads", "stores", "queries",
          "backend_stall_cycles", "frontend_stall_cycles", "ipc",
          "cycles_per_query"})
        EXPECT_TRUE(baseline.contains(key)) << key;

    const Json& schemes = doc.at("schemes");
    for (const auto& name : schemeNames()) {
        const Json& s = schemes.at(name);
        for (const char* key :
             {"cycles", "queries", "core_instructions", "mismatches",
              "exceptions", "mem_accesses", "micro_ops",
              "remote_compares", "avg_qst_occupancy",
              "max_inflight_observed", "cycles_per_query", "speedup"})
            EXPECT_TRUE(s.contains(key)) << name << "." << key;
        EXPECT_EQ(s.at("mismatches").asUint(), 0u) << name;
        EXPECT_GT(s.at("speedup").asDouble(), 0.0) << name;
    }
}

TEST(BenchJson, SpeedupsMatchTableToThreeDecimals)
{
    // The printed table rounds speedups to two or three decimals; the
    // JSON carries the raw double, so it must agree with speedupOf()
    // well past that precision.
    const WorkloadRun& run = goldenRun();
    const Json doc = toJson(run);
    for (const auto& name : schemeNames()) {
        const double json =
            doc.at("schemes").at(name).at("speedup").asDouble();
        const double expected =
            speedupOf(run.baseline, run.schemes.at(name));
        EXPECT_NEAR(json, expected, 0.0005) << name;
        EXPECT_DOUBLE_EQ(json, expected) << name;
    }
}

TEST(BenchJson, CapturedStatsAreValidDottedDumps)
{
    auto workloads = makeAllWorkloads();
    World world(42);
    workloads.front()->build(world);
    const Prepared prepared = workloads.front()->prepare(world, 400);
    for (const Topology& topo : Topology::allPaper()) {
        const std::string name = topo.name();
        std::string json;
        const QeiRunStats stats = runQei(
            world, prepared, DriverConfig(topo).captureStats(&json));
        const Json dump = Json::parse(json);
        ASSERT_TRUE(dump.isObject()) << name;
        // The component tree always roots at "system" and always
        // exposes the first accelerator and the memory hierarchy.
        EXPECT_TRUE(dump.contains("system.accel0.queries")) << name;
        EXPECT_TRUE(dump.contains("system.accel0.qst.occupancy"))
            << name;
        EXPECT_TRUE(dump.contains("system.memory.llc_hit_rate"))
            << name;

        // Completed queries summed over every accelerator must equal
        // the run's query count.
        std::uint64_t completed = 0;
        for (const auto& [path, value] : dump.items()) {
            if (path.rfind("system.accel", 0) == 0 &&
                path.size() > 8 &&
                path.compare(path.size() - 8, 8, ".queries") == 0)
                completed += value.asUint();
        }
        EXPECT_EQ(stats.queries, 400u) << name;
        EXPECT_EQ(completed, stats.queries) << name;
    }
}

TEST(BenchJson, HostSelfMetricsStampSimEventRateAndCellWalls)
{
    // The report must be constructed before the simulation work so
    // its sim-event baseline brackets the run.
    BenchReport report("unit_host", BenchOptions{});
    const WorkloadRun run =
        runFirstWorkload(120, {SchemeConfig::coreIntegrated()});
    report.data()["run"] = toJson(run);
    ASSERT_TRUE(report.finish());

    const Json& host = report.data().at("host");
    EXPECT_GT(host.at("sim_events").asUint(), 0u);
    EXPECT_GT(host.at("sim_events_per_sec").asDouble(), 0.0);
    EXPECT_GT(host.at("wall_ms").asDouble(), 0.0);

    // Every per-cell host_wall_ms in the payload surfaces in the
    // top-level block, keyed by its dotted path.
    const Json& cells = host.at("cells");
    EXPECT_TRUE(cells.contains("run"));
    EXPECT_TRUE(cells.contains("run.baseline"));
    EXPECT_TRUE(cells.contains(
        "run.schemes." + SchemeConfig::coreIntegrated().name()));
    EXPECT_GT(cells.at("run.baseline").asDouble(), 0.0);
}

TEST(BenchJson, TableMirrorsIntoReport)
{
    TablePrinter table;
    table.header({"workload", "speedup"});
    table.row({"jvm", "3.1x"});

    BenchReport report("unit", BenchOptions{});
    report.setTable(table);
    const Json& root = report.data();
    EXPECT_EQ(root.at("bench").asString(), "unit");
    const Json& t = root.at("table");
    EXPECT_EQ(t.at("header").at(1).asString(), "speedup");
    EXPECT_EQ(t.at("rows").at(0).at(0).asString(), "jvm");
    // No --json path: finish() is a successful no-op.
    EXPECT_TRUE(report.finish());
}
