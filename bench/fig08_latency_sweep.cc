/**
 * Fig. 8 — Latency sensitivity of the Device-indirect scheme: sweep
 * the device interface's per-access latency from 50 to 2000 cycles
 * and report the ROI speedup per workload.
 *
 * Paper shape: a nontrivial performance drop for all workloads as the
 * interface latency grows; short-query workloads (hash tables) fall
 * off hardest.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace qei;
using namespace qei::bench;

namespace {

using validate::Expectation;
using validate::Relation;

/** Paper expectations for the Fig. 8 latency sweep. */
validate::Suite
paperExpectations(bool all_monotonic, double dpdk_retention,
                  double flann_retention)
{
    validate::Suite suite;
    suite.title = "Fig. 8 — Device-indirect interface-latency "
                  "sensitivity";
    suite.preamble =
        "Every workload loses speedup monotonically as the device "
        "interface latency grows from 50 to 2000 cycles, and the "
        "short-query hash workload (dpdk) retains the smallest "
        "fraction of its 50-cycle speedup — both exactly the "
        "paper's argument for keeping the queue-state table off "
        "the device.";
    for (const char* w : {"dpdk", "rocksdb", "flann"}) {
        const std::string name = w;
        const std::string base = "workloads.[workload=" + name + "]";
        suite.expectations.push_back(Expectation::ordering(
            "latency-hurts-" + name, "Fig. 8",
            "a 2000-cycle interface is far slower than 50 cycles on "
            + name,
            base + ".sweep.[interface_latency=2000].speedup",
            Relation::Lt,
            base + ".sweep.[interface_latency=50].speedup"));
    }
    suite.expectations.push_back(Expectation::range(
        "dpdk-50cyc", "Fig. 8",
        "dpdk speedup with a 50-cycle interface",
        "workloads.[workload=dpdk].sweep.[interface_latency=50]"
        ".speedup",
        "x", 3.0, 5.0, 0.15));
    suite.expectations.push_back(Expectation::range(
        "dpdk-2000cyc", "Fig. 8",
        "dpdk collapses below break-even at 2000 cycles",
        "workloads.[workload=dpdk].sweep.[interface_latency=2000]"
        ".speedup",
        "x", 0.05, 0.35, 0.25));
    suite.expectations.push_back(Expectation::range(
        "flann-50cyc", "Fig. 8",
        "flann speedup with a 50-cycle interface",
        "workloads.[workload=flann].sweep.[interface_latency=50]"
        ".speedup",
        "x", 3.5, 5.5, 0.15));
    suite.expectations.push_back(Expectation::shape(
        "monotonic-decline", "Fig. 8",
        "speedup declines monotonically with interface latency for "
        "every workload",
        all_monotonic, all_monotonic ? "monotonic" : "non-monotonic"));
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "dpdk retains %.1f%%, flann retains %.1f%%",
                  dpdk_retention * 100.0, flann_retention * 100.0);
    suite.expectations.push_back(Expectation::shape(
        "hash-falls-hardest", "Fig. 8",
        "the hash workload keeps a smaller share of its 50-cycle "
        "speedup than the tree workload",
        dpdk_retention < flann_retention, buf));
    return suite;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options = parseBenchArgs(argc, argv);
    BenchReport report("fig08_latency_sweep", options);
    std::printf("=== Fig. 8: Device-indirect interface-latency sweep "
                "===\n");

    const std::vector<Cycles> sweep{50, 100, 200, 300, 500, 1000, 2000};

    TablePrinter table;
    std::vector<std::string> header{"workload"};
    for (Cycles c : sweep)
        header.push_back(std::to_string(c) + " cyc");
    table.header(header);

    struct SweepResult
    {
        std::vector<std::string> row;
        Json w;
        std::string name;
        bool monotonic = true;
        double retention = 0.0; ///< speedup@2000 / speedup@50
    };

    // One task per workload: each owns a private world; the sweep
    // reruns the same queries on it.
    const auto factories = makeWorkloadFactories();
    auto results = parallelMap(
        options.threads, factories.size(),
        [&](std::size_t i) -> SweepResult {
            const auto workload = factories[i]();
            World world(42);
            workload->build(world);
            const Prepared prepared =
                workload->prepare(world, workload->defaultQueries());
            const CoreRunResult baseline = runBaseline(
                world, prepared, 0, workload->name() + "/baseline");

            SweepResult result;
            result.name = workload->name();
            Json points = Json::array();
            std::vector<std::string> row{workload->name()};
            double first = 0.0;
            double prev = 0.0;
            double last = 0.0;
            bool haveFirst = false;
            for (Cycles c : sweep) {
                const QeiRunStats stats = runQei(
                    world, prepared,
                    DriverConfig(SchemeConfig::deviceIndirect(c))
                        .withLabel(workload->name() + "/dev-" +
                                   std::to_string(c)));
                const double speedup = speedupOf(baseline, stats);
                if (!haveFirst) {
                    first = speedup;
                    haveFirst = true;
                } else if (speedup > prev) {
                    result.monotonic = false;
                }
                prev = speedup;
                last = speedup;
                row.push_back(TablePrinter::speedup(speedup));
                Json p = Json::object();
                p["interface_latency"] = c;
                p["speedup"] = speedup;
                p["qei"] = toJson(stats);
                points.push_back(std::move(p));
            }

            Json w = Json::object();
            w["workload"] = workload->name();
            w["baseline"] = toJson(baseline);
            w["sweep"] = std::move(points);
            result.row = std::move(row);
            result.w = std::move(w);
            result.retention = first > 0.0 ? last / first : 0.0;
            return result;
        });

    Json workloads = Json::array();
    bool allMonotonic = true;
    double dpdkRetention = 0.0;
    double flannRetention = 0.0;
    for (auto& result : results) {
        table.row(result.row);
        workloads.push_back(std::move(result.w));
        allMonotonic = allMonotonic && result.monotonic;
        if (result.name == "dpdk")
            dpdkRetention = result.retention;
        else if (result.name == "flann")
            flannRetention = result.retention;
    }
    table.print();
    std::printf("paper reference: monotonic drop with latency; device "
                "interfaces quoted at ~300 ns (~750 cycles) round "
                "trip\n");

    report.data()["workloads"] = std::move(workloads);
    report.setTable(table);
    report.setValidation(paperExpectations(allMonotonic, dpdkRetention,
                                           flannRetention));
    return report.finish() ? 0 : 1;
}
