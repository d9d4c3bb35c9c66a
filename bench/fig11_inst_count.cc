/**
 * Fig. 11 — Dynamic instructions executed by the core inside the ROI:
 * software baseline versus QEI (Core-integrated, blocking).
 *
 * Paper shape: QEI eliminates the large majority of the dynamic
 * instructions (the query routine collapses to one QUERY instruction
 * plus the surrounding independent work), which is where the frontend
 * relief of Sec. VII-C comes from.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace qei;
using namespace qei::bench;

namespace {

using validate::Expectation;
using validate::Relation;

/** Paper expectations for the Fig. 11 instruction-count reduction. */
validate::Suite
paperExpectations()
{
    validate::Suite suite;
    suite.title = "Fig. 11 — dynamic instructions in the ROI";
    suite.preamble =
        "QEI collapses each software query routine to one QUERY "
        "instruction plus the surrounding independent work, so the "
        "reduction tracks the baseline query length: the deep trie "
        "walk (snort) loses essentially all of its instructions, "
        "the short hash probes (dpdk) and the small-tree search "
        "(flann) keep the most residual work.";
    struct Band { const char* w; double lo; double hi; };
    for (const Band& b : {Band{"dpdk", 0.70, 0.90},
                          Band{"jvm", 0.90, 0.99},
                          Band{"rocksdb", 0.95, 1.00},
                          Band{"snort", 0.98, 1.00},
                          Band{"flann", 0.70, 0.90}}) {
        const std::string name = b.w;
        suite.expectations.push_back(Expectation::range(
            "reduction-" + name, "Fig. 11",
            "dynamic-instruction reduction on " + name,
            "workloads.[workload=" + name + "].reduction", "%", b.lo,
            b.hi, 0.05));
    }
    suite.expectations.push_back(Expectation::ordering(
        "deep-queries-collapse-hardest", "Fig. 11",
        "the deep trie workload sheds a larger share than the hash "
        "workload",
        "workloads.[workload=snort].reduction", Relation::Gt,
        "workloads.[workload=dpdk].reduction"));
    return suite;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options = parseBenchArgs(argc, argv);
    BenchReport report("fig11_inst_count", options);
    std::printf("=== Fig. 11: dynamic instruction count in the ROI "
                "===\n");

    TablePrinter table;
    table.header({"workload", "baseline instr/query",
                  "QEI instr/query", "reduction"});

    MatrixOptions matrix;
    matrix.topologies = {SchemeConfig::coreIntegrated()};
    matrix.threads = options.threads;

    Json workloads = Json::array();
    for (const WorkloadRun& run :
         runWorkloadMatrix(makeWorkloadFactories(), matrix)) {
        const double base =
            static_cast<double>(run.baseline.instructions) /
            static_cast<double>(run.baseline.queries);
        const QeiRunStats& qei = run.schemes.at("Core-integrated");
        const double ours =
            static_cast<double>(qei.coreInstructions) /
            static_cast<double>(qei.queries);
        table.row({run.name, TablePrinter::num(base, 0),
                   TablePrinter::num(ours, 0),
                   TablePrinter::percent(1.0 - ours / base)});

        Json w = Json::object();
        w["workload"] = run.name;
        w["baseline_instr_per_query"] = base;
        w["qei_instr_per_query"] = ours;
        w["reduction"] = 1.0 - ours / base;
        workloads.push_back(std::move(w));
    }
    table.print();
    std::printf("paper reference: a significant share of ROI dynamic "
                "instructions is eliminated (each software query runs "
                "to hundreds of instructions; QEI issues one)\n");

    report.data()["workloads"] = std::move(workloads);
    report.setTable(table);
    report.setValidation(paperExpectations());
    return report.finish() ? 0 : 1;
}
