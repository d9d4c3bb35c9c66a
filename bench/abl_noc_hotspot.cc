/**
 * Ablation — NoC hotspot pressure: peak and mean link utilisation of
 * the distributed schemes versus the centralised device schemes under
 * a deep non-blocking load (Sec. V: "each QEI accelerator can
 * saturate as much as 8% of the mesh NoC bandwidth" and a centralised
 * stop concentrates it).
 */

#include <cstdio>

#include "bench_util.hh"

using namespace qei;
using namespace qei::bench;

namespace {

using validate::Expectation;
using validate::Relation;

/** Paper expectations for the NoC hotspot ablation. */
validate::Suite
paperExpectations()
{
    validate::Suite suite;
    suite.title = "Ablation — NoC hotspot under non-blocking flood";
    suite.preamble =
        "Quantifies the Sec. V hotspot argument: the single-stop "
        "Device schemes concentrate traffic on the links around "
        "the device tile (peak far above mean), while the "
        "distributed CHA and Core-integrated schemes spread the "
        "same load across the mesh.";
    suite.expectations.push_back(Expectation::range(
        "device-direct-peak", "Sec. V",
        "Device-direct peak link utilisation under flood",
        "schemes.[scheme=Device-direct].peak_link_utilisation", "%",
        0.60, 0.95, 0.15));
    suite.expectations.push_back(Expectation::range(
        "cha-tlb-peak", "Sec. V",
        "CHA-TLB peak link utilisation stays modest",
        "schemes.[scheme=CHA-TLB].peak_link_utilisation", "%", 0.10,
        0.40, 0.20));
    suite.expectations.push_back(Expectation::ordering(
        "device-concentrates", "Sec. V",
        "the centralised device stop concentrates traffic versus "
        "the distributed CHA scheme",
        "schemes.[scheme=Device-direct].peak_link_utilisation",
        Relation::Gt,
        "schemes.[scheme=CHA-TLB].peak_link_utilisation"));
    suite.expectations.push_back(Expectation::ordering(
        "device-peak-vs-mean", "Sec. V",
        "Device-direct peak utilisation dwarfs its mean (a true "
        "hotspot, not uniform load)",
        "schemes.[scheme=Device-direct].peak_link_utilisation",
        Relation::Gt,
        "schemes.[scheme=Device-direct].mean_link_utilisation",
        -0.80));
    suite.expectations.push_back(Expectation::ordering(
        "core-int-spreads", "Sec. V",
        "Core-integrated also avoids the device hotspot",
        "schemes.[scheme=Core-integrated].peak_link_utilisation",
        Relation::Lt,
        "schemes.[scheme=Device-direct].peak_link_utilisation"));
    return suite;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options = parseBenchArgs(argc, argv);
    BenchReport report("abl_noc_hotspot", options);
    std::printf("=== Ablation: NoC hotspot (non-blocking flood) ===\n");

    TablePrinter table;
    table.header({"scheme", "peak link util", "mean link util",
                  "NoC bytes/query"});

    struct HotspotResult
    {
        std::vector<std::string> row;
        Json s;
    };

    // One task per scheme; each already built a fresh world, so the
    // parallel fan-out changes nothing about the measurement.
    const auto allSchemes = SchemeConfig::allSchemes();
    auto results = parallelMap(
        options.threads, allSchemes.size(),
        [&](std::size_t i) -> HotspotResult {
            const SchemeConfig& scheme = allSchemes[i];
            const auto jvm = makeWorkloadFactories()[1]();
            World world(42);
            jvm->build(world);
            const Prepared prepared = jvm->prepare(world, 1200);
            const QeiRunStats stats =
                runQei(world, prepared,
                       DriverConfig(scheme)
                           .withMode(QueryMode::NonBlocking)
                           .withPollBatch(120)
                           .withLabel("jvm/" + scheme.name()));

            HotspotResult out;
            out.row = {scheme.name(),
                       TablePrinter::percent(
                           world.hierarchy.mesh().peakLinkUtilisation()),
                       TablePrinter::percent(
                           world.hierarchy.mesh().meanLinkUtilisation()),
                       TablePrinter::num(
                           static_cast<double>(
                               world.hierarchy.mesh().totalBytes()) /
                               static_cast<double>(stats.queries),
                           0)};

            Json s = Json::object();
            s["scheme"] = scheme.name();
            s["peak_link_utilisation"] =
                world.hierarchy.mesh().peakLinkUtilisation();
            s["mean_link_utilisation"] =
                world.hierarchy.mesh().meanLinkUtilisation();
            s["noc_bytes_per_query"] =
                static_cast<double>(
                    world.hierarchy.mesh().totalBytes()) /
                static_cast<double>(stats.queries);
            out.s = std::move(s);
            return out;
        });

    Json schemes = Json::array();
    for (auto& result : results) {
        table.row(result.row);
        schemes.push_back(std::move(result.s));
    }
    table.print();
    std::printf("expectation: the single-stop Device schemes "
                "concentrate traffic (peak >> mean); the distributed "
                "schemes spread it\n");

    report.data()["schemes"] = std::move(schemes);
    report.setTable(table);
    report.setValidation(paperExpectations());
    return report.finish() ? 0 : 1;
}
