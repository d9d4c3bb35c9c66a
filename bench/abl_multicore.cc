/**
 * Ablation — multi-core scalability: the Tab. I "scalability" column
 * made quantitative. The same total query load is issued from 1, 4,
 * 8, and 16 cores concurrently; distributed schemes (per-core or
 * per-CHA accelerators) keep scaling, while the single device stop
 * saturates — its QST, its DPU, and the NoC links around it become
 * the shared bottleneck.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace qei;
using namespace qei::bench;

namespace {

using validate::Expectation;
using validate::Relation;

/** Paper expectations for the multi-core scalability ablation. */
validate::Suite
paperExpectations()
{
    validate::Suite suite;
    suite.title = "Ablation — multi-core issue scalability";
    suite.preamble =
        "The Tab. I scalability column made quantitative: the "
        "distributed schemes (per-core and per-CHA accelerators) "
        "approach linear 16-core scaling on the same total query "
        "load, while the single device stop saturates on its "
        "shared QST, DPU, and surrounding NoC links.";
    suite.expectations.push_back(Expectation::range(
        "core-int-scaling", "Tab. I",
        "Core-integrated 16-core scaling",
        "schemes.[scheme=Core-integrated].scaling_16_core", "x", 9.0,
        14.0, 0.15));
    suite.expectations.push_back(Expectation::range(
        "cha-tlb-scaling", "Tab. I", "CHA-TLB 16-core scaling",
        "schemes.[scheme=CHA-TLB].scaling_16_core", "x", 8.0, 13.0,
        0.15));
    suite.expectations.push_back(Expectation::range(
        "device-direct-scaling", "Tab. I",
        "Device-direct saturates well below linear scaling",
        "schemes.[scheme=Device-direct].scaling_16_core", "x", 2.0,
        4.5, 0.20));
    suite.expectations.push_back(Expectation::ordering(
        "device-saturates", "Tab. I",
        "the shared device stop scales far worse than the "
        "distributed CHA scheme",
        "schemes.[scheme=Device-direct].scaling_16_core",
        Relation::Lt, "schemes.[scheme=CHA-TLB].scaling_16_core"));
    suite.expectations.push_back(Expectation::ordering(
        "per-core-scales-best", "Tab. I",
        "per-core accelerators scale at least as well as per-CHA "
        "ones",
        "schemes.[scheme=Core-integrated].scaling_16_core",
        Relation::Ge, "schemes.[scheme=CHA-TLB].scaling_16_core",
        0.05));
    return suite;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options = parseBenchArgs(argc, argv);
    BenchReport report("abl_multicore", options);
    std::printf("=== Ablation: multi-core issue scalability ===\n");

    TablePrinter table;
    table.header({"scheme", "1 core (cyc/q)", "4 cores", "8 cores",
                  "16 cores", "16-core scaling"});

    std::vector<SchemeConfig> schemesToRun;
    for (const auto& scheme : SchemeConfig::allSchemes()) {
        if (scheme.scheme == IntegrationScheme::DeviceIndirect)
            continue; // dominated by interface latency, not sharing
        schemesToRun.push_back(scheme);
    }

    struct ScalingResult
    {
        std::vector<std::string> row;
        Json s;
    };

    // One task per scheme; each builds its own world + prepared query
    // stream from seed 42, matching the serial sweep exactly.
    auto results = parallelMap(
        options.threads, schemesToRun.size(),
        [&](std::size_t i) -> ScalingResult {
            const SchemeConfig& scheme = schemesToRun[i];
            const auto jvm = makeWorkloadFactories()[1]();
            World world(42);
            jvm->build(world);
            const Prepared prepared = jvm->prepare(world, 2400);

            ScalingResult result;
            std::vector<std::string> row{scheme.name()};
            double oneCore = 0.0;
            double sixteen = 0.0;
            Json points = Json::array();
            for (int cores : {1, 4, 8, 16}) {
                world.resetTiming();
                world.warmLlc();
                metrics::CellCapture capture(world.traceSink);
                QeiSystem system(world.chip, world.events,
                                 world.hierarchy, world.vm,
                                 world.firmware, scheme,
                                 &world.traceSink);
                const QeiRunStats stats = system.runBlockingMultiCore(
                    prepared.jobs, cores, prepared.profile);
                simAssert(stats.mismatches == 0, "mismatches on {}",
                          scheme.name());
                capture.record(scheme.name() + "/" +
                               std::to_string(cores) + "-cores");
                row.push_back(
                    TablePrinter::num(stats.cyclesPerQuery(), 1));
                if (cores == 1)
                    oneCore = stats.cyclesPerQuery();
                if (cores == 16)
                    sixteen = stats.cyclesPerQuery();
                Json p = Json::object();
                p["cores"] = cores;
                p["cycles_per_query"] = stats.cyclesPerQuery();
                p["qei"] = toJson(stats);
                points.push_back(std::move(p));
            }
            row.push_back(TablePrinter::speedup(oneCore / sixteen));

            Json s = Json::object();
            s["scheme"] = scheme.name();
            s["points"] = std::move(points);
            s["scaling_16_core"] = oneCore / sixteen;
            result.row = std::move(row);
            result.s = std::move(s);
            return result;
        });

    Json schemes = Json::array();
    for (auto& result : results) {
        table.row(result.row);
        schemes.push_back(std::move(result.s));
    }
    table.print();
    std::printf("expectation: per-core / per-CHA schemes approach "
                "linear scaling; the single device stop saturates "
                "(Tab. I scalability column)\n");

    report.data()["schemes"] = std::move(schemes);
    report.setTable(table);
    report.setValidation(paperExpectations());
    return report.finish() ? 0 : 1;
}
