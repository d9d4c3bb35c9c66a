/**
 * Ablation — QST sizing for the Core-integrated scheme. The paper
 * picks ten entries as "a decent balance between performance and cost
 * (50%~90% occupancy)"; this sweep regenerates that trade-off.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace qei;
using namespace qei::bench;

namespace {

using validate::Expectation;
using validate::Relation;

/** Paper expectations for the QST sizing sweep. */
validate::Suite
paperExpectations()
{
    validate::Suite suite;
    suite.title = "Ablation — Core-integrated QST size";
    suite.preamble =
        "Regenerates the paper's Sec. IV-B sizing argument: two "
        "entries starve the in-flight window, performance "
        "saturates around ten entries, and a 40-entry table buys "
        "nothing while its occupancy collapses. Occupancy at the "
        "ten-entry design point runs a few points above the "
        "paper's 50%~90% quote on the jvm workload.";
    const std::string kOccupancyNote =
        "occupancy lands just above the paper's 50%~90% quote at "
        "the design point (gate widened to 95%)";
    suite.expectations.push_back(Expectation::range(
        "jvm-speedup-at-10", "Sec. IV-B",
        "jvm speedup at the 10-entry design point",
        "sweep.[qst_entries=10].jvm_speedup", "x", 6.5, 8.5, 0.15));
    suite.expectations.push_back(Expectation::ordering(
        "small-qst-starves", "Sec. IV-B",
        "a 2-entry QST starves the window on jvm",
        "sweep.[qst_entries=2].jvm_speedup", Relation::Lt,
        "sweep.[qst_entries=10].jvm_speedup"));
    suite.expectations.push_back(Expectation::ordering(
        "jvm-saturates-at-10", "Sec. IV-B",
        "growing the QST from 10 to 40 entries buys jvm nothing",
        "sweep.[qst_entries=40].jvm_speedup", Relation::Le,
        "sweep.[qst_entries=10].jvm_speedup", 0.05));
    suite.expectations.push_back(Expectation::reanchored(
        "jvm-occupancy-at-10", "Sec. IV-B",
        "jvm QST occupancy at the design point",
        "sweep.[qst_entries=10].jvm_occupancy", "%", 0.50, 0.90,
        0.50, 0.95, 0.10, kOccupancyNote));
    suite.expectations.push_back(Expectation::reanchored(
        "dpdk-occupancy-at-10", "Sec. IV-B",
        "dpdk QST occupancy at the design point",
        "sweep.[qst_entries=10].dpdk_occupancy", "%", 0.50, 0.90,
        0.50, 0.95, 0.10, kOccupancyNote));
    suite.expectations.push_back(Expectation::ordering(
        "big-qst-wasted", "Sec. IV-B",
        "a 40-entry table sits mostly idle",
        "sweep.[qst_entries=40].jvm_occupancy", Relation::Lt,
        "sweep.[qst_entries=10].jvm_occupancy"));
    return suite;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options = parseBenchArgs(argc, argv);
    BenchReport report("abl_qst_size", options);
    std::printf("=== Ablation: Core-integrated QST size sweep ===\n");

    TablePrinter table;
    table.header({"QST entries", "jvm speedup", "jvm occupancy",
                  "dpdk speedup", "dpdk occupancy"});

    const std::vector<int> sizes{2, 5, 10, 20, 40};

    struct SweepPoint
    {
        double jvmSpeedup, jvmOccupancy;
        double dpdkSpeedup, dpdkOccupancy;
    };

    // One task per QST size; each builds private jvm/dpdk worlds from
    // the same seeds the serial sweep used, so points are identical.
    auto sweep = parallelMap(
        options.threads, sizes.size(),
        [&](std::size_t i) -> SweepPoint {
            const int entries = sizes[i];
            const std::string qst = "/qst-" + std::to_string(entries);
            SchemeConfig scheme = SchemeConfig::coreIntegrated();
            scheme.qstEntries = entries;
            auto workloads = makeAllWorkloads();

            World jvmWorld(42);
            workloads[1]->build(jvmWorld);
            const Prepared jvmPrep = workloads[1]->prepare(jvmWorld, 800);
            const CoreRunResult jvmBase = runBaseline(
                jvmWorld, jvmPrep, 0, "jvm" + qst + "/baseline");
            const QeiRunStats jvmStats =
                runQei(jvmWorld, jvmPrep,
                       DriverConfig(scheme).withLabel("jvm" + qst));

            World dpdkWorld(43);
            workloads[0]->build(dpdkWorld);
            const Prepared dpdkPrep =
                workloads[0]->prepare(dpdkWorld, 1500);
            const CoreRunResult dpdkBase = runBaseline(
                dpdkWorld, dpdkPrep, 0, "dpdk" + qst + "/baseline");
            const QeiRunStats dpdkStats =
                runQei(dpdkWorld, dpdkPrep,
                       DriverConfig(scheme).withLabel("dpdk" + qst));

            return SweepPoint{speedupOf(jvmBase, jvmStats),
                              jvmStats.avgQstOccupancy / entries,
                              speedupOf(dpdkBase, dpdkStats),
                              dpdkStats.avgQstOccupancy / entries};
        });

    Json points = Json::array();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const SweepPoint& point = sweep[i];
        table.row({std::to_string(sizes[i]),
                   TablePrinter::speedup(point.jvmSpeedup),
                   TablePrinter::percent(point.jvmOccupancy),
                   TablePrinter::speedup(point.dpdkSpeedup),
                   TablePrinter::percent(point.dpdkOccupancy)});

        Json p = Json::object();
        p["qst_entries"] = sizes[i];
        p["jvm_speedup"] = point.jvmSpeedup;
        p["jvm_occupancy"] = point.jvmOccupancy;
        p["dpdk_speedup"] = point.dpdkSpeedup;
        p["dpdk_occupancy"] = point.dpdkOccupancy;
        points.push_back(std::move(p));
    }
    table.print();
    std::printf("design point: 10 entries — performance saturates "
                "near the ROB-limited in-flight count while the table "
                "stays small\n");

    report.data()["sweep"] = std::move(points);
    report.setTable(table);
    report.setValidation(paperExpectations());
    return report.finish() ? 0 : 1;
}
