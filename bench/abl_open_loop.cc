/**
 * Ablation — open-loop serving latency. The paper evaluates QEI with
 * back-to-back queries (a closed loop); this harness asks the serving
 * question instead: with queries arriving as a seeded Poisson process
 * at a fraction of the accelerator's saturation rate, what do the
 * p50/p99/p999 sojourn times (queue-wait + service) look like?
 *
 * Each cell first calibrates the closed-loop service rate for its
 * workload, then offers load at 30/50/70/80/90% of that rate through
 * traffic::PoissonOpenLoop, and finally locates the knee of the
 * p99-vs-load curve (the largest slope break across the sweep).
 * Expectation bands are self-anchored: the paper has no open-loop
 * numbers, so the gates assert the queueing shape (tails grow with
 * load, percentiles are ordered, light load leaves the queue empty,
 * the knee sits at high load) rather than absolute cycles.
 *
 * Usage: abl_open_loop [queries] — the optional positional argument
 * caps queries per workload (CI smoke runs use a reduced count).
 */

#include <cstdio>
#include <map>
#include <memory>

#include "bench_util.hh"
#include "traffic/traffic.hh"

using namespace qei;
using namespace qei::bench;

namespace {

using validate::Expectation;
using validate::Relation;

/** Offered load as a percentage of the calibrated service rate. */
const std::vector<int> kLoadsPct{30, 50, 70, 80, 90};

/** Knee of the p99-vs-load curve (largest slope break). */
struct Knee
{
    int loadPct = 0;       ///< 0 until detectKnee ran
    double p99 = 0.0;      ///< windowed at the knee point
    double slopeBreak = 0.0; ///< outgoing − incoming slope, cyc/load-%
};

/**
 * Find the load point where the p99 curve bends hardest: for each
 * interior point of the sweep, compare the outgoing and incoming
 * cycles-per-load-percent slopes and keep the largest increase. A
 * second-difference test is robust where slope *ratios* are not —
 * the low-load side of a queueing curve is nearly flat, so a ratio
 * would divide by almost zero.
 */
Knee
detectKnee(const std::vector<int>& loads,
           const std::vector<double>& p99)
{
    Knee best;
    for (std::size_t i = 1; i + 1 < loads.size(); ++i) {
        const double incoming =
            (p99[i] - p99[i - 1]) /
            static_cast<double>(loads[i] - loads[i - 1]);
        const double outgoing =
            (p99[i + 1] - p99[i]) /
            static_cast<double>(loads[i + 1] - loads[i]);
        const double slopeBreak = outgoing - incoming;
        if (best.loadPct == 0 || slopeBreak > best.slopeBreak) {
            best.loadPct = loads[i];
            best.p99 = p99[i];
            best.slopeBreak = slopeBreak;
        }
    }
    return best;
}

struct CellSpec
{
    std::size_t workloadIdx; ///< into makeWorkloadFactories() order
    std::uint64_t worldSeed;
    std::size_t queries;
};

struct CellResult
{
    int loadPct;
    double meanGap; ///< offered inter-arrival gap, cycles
    QeiRunStats stats;
    trace::TraceBuffer trace;
};

/**
 * Closed-loop cycles/query for this cell's workload: the saturation
 * service rate the load sweep is anchored to. Deterministic per
 * (workload, seed, queries), so every thread computes the same gap.
 */
double
calibrateServiceGap(const CellSpec& spec)
{
    auto workload = makeWorkloadFactories()[spec.workloadIdx]();
    World world(spec.worldSeed);
    workload->build(world);
    const Prepared prep = workload->prepare(world, spec.queries);
    const QeiRunStats closed = runQei(
        world, prep, DriverConfig(SchemeConfig::coreIntegrated()));
    return static_cast<double>(closed.cycles) /
           static_cast<double>(closed.queries);
}

/** Self-anchored expectations: queueing shape, not absolute cycles. */
validate::Suite
paperExpectations(const std::map<std::string, Knee>& knees)
{
    validate::Suite suite;
    suite.title = "Ablation — open-loop serving latency";
    suite.preamble =
        "No paper counterpart: the paper evaluates back-to-back "
        "queries only, so these gates are self-anchored. They assert "
        "the queueing-theory shape any correct open-loop harness must "
        "show — sojourn tails grow with offered load, percentiles "
        "are ordered, and at 30% load the queue is essentially "
        "empty — plus functional correctness under Poisson arrivals.";
    const std::string kSelfAnchored =
        "self-anchored: asserts open-loop shape, no paper band";
    for (const char* w : {"dpdk", "jvm"}) {
        const std::string base = std::string(w) + ".";
        suite.expectations.push_back(Expectation::ordering(
            w + std::string("-p99-grows-with-load"), "Sec. VII (ext.)",
            std::string(w) +
                " p99 sojourn at 90% load exceeds 30% load",
            base + "[load_pct=90].sojourn_p99", Relation::Gt,
            base + "[load_pct=30].sojourn_p99", 0.0, kSelfAnchored));
        suite.expectations.push_back(Expectation::ordering(
            w + std::string("-percentiles-ordered"), "Sec. VII (ext.)",
            std::string(w) + " p50 <= p99 at 90% load",
            base + "[load_pct=90].sojourn_p50", Relation::Le,
            base + "[load_pct=90].sojourn_p99", 0.0, kSelfAnchored));
        suite.expectations.push_back(Expectation::ordering(
            w + std::string("-light-load-queue-empty"),
            "Sec. VII (ext.)",
            std::string(w) +
                " queue-wait stays below service time at 30% load",
            base + "[load_pct=30].queue_wait_mean", Relation::Lt,
            base + "[load_pct=30].service_mean", 0.0, kSelfAnchored));
        suite.expectations.push_back(Expectation::exact(
            w + std::string("-no-mismatches"), "Sec. IV",
            std::string(w) +
                " functional correctness under Poisson arrivals",
            std::string(w) + "_summary.mismatches", "queries",
            0.0, kSelfAnchored));
        // Knee-of-curve gates: any correct open-loop sweep of a
        // queueing system bends in the upper half of the load range —
        // a knee at light load means the calibration (or the queue
        // model) is wrong. The band is self-anchored like the rest.
        suite.expectations.push_back(Expectation::range(
            w + std::string("-knee-in-band"), "Sec. VII (ext.)",
            std::string(w) + " detected p99 knee sits at high load",
            std::string(w) + "_summary.knee_load_pct", "% load",
            60.0, 90.0, 0.15, kSelfAnchored));
        const Knee& knee = knees.at(w);
        suite.expectations.push_back(Expectation::shape(
            w + std::string("-knee-detected"), "Sec. VII (ext.)",
            std::string(w) +
                " p99-vs-load curve is convex at the knee (positive "
                "slope break)",
            knee.slopeBreak > 0.0,
            fmt("knee at {}% load, slope break {:.2f} cycles/% ",
                knee.loadPct, knee.slopeBreak),
            kSelfAnchored));
    }
    return suite;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options = parseBenchArgs(argc, argv);
    BenchReport report("abl_open_loop", options);
    std::printf("=== Ablation: open-loop serving latency ===\n");

    const std::vector<CellSpec> specs{
        {0, 43, options.capped(1500)}, // dpdk
        {1, 42, options.capped(800)},  // jvm
    };
    const std::vector<std::string> specNames{"dpdk", "jvm"};

    TraceCollector tracer(options.tracePath);

    // Phase 1: calibrate each workload's closed-loop service rate.
    const auto gaps =
        parallelMap(options.threads, specs.size(),
                    [&](std::size_t i) -> double {
                        return calibrateServiceGap(specs[i]);
                    });

    // Phase 2: one cell per (workload, offered load); every cell
    // builds its own World from the spec seed, so results are
    // bit-identical at any --threads setting.
    const std::size_t cells = specs.size() * kLoadsPct.size();
    auto sweep = parallelMap(
        options.threads, cells, [&](std::size_t c) -> CellResult {
            const std::size_t w = c / kLoadsPct.size();
            const CellSpec& spec = specs[w];
            const int loadPct = kLoadsPct[c % kLoadsPct.size()];
            const double meanGap =
                gaps[w] * 100.0 / static_cast<double>(loadPct);

            auto workload =
                makeWorkloadFactories()[spec.workloadIdx]();
            World world(spec.worldSeed);
            workload->build(world);
            const Prepared prep =
                workload->prepare(world, spec.queries);
            tracer.arm(world);
            const QeiRunStats stats = runQei(
                world, prep,
                DriverConfig(SchemeConfig::coreIntegrated())
                    .withLabel(specNames[w] + "/load-" +
                               std::to_string(loadPct))
                    .withTraffic(
                        std::make_shared<traffic::PoissonOpenLoop>(
                            meanGap, /*seed=*/1000 + c)));
            CellResult out{loadPct, meanGap, stats, {}};
            if (tracer.enabled())
                out.trace = world.traceSink.drain();
            return out;
        });

    TablePrinter table;
    table.header({"workload", "load", "offered gap", "sojourn p50",
                  "sojourn p99", "sojourn p999", "queue-wait p99"});

    std::map<std::string, Knee> knees;
    for (std::size_t w = 0; w < specs.size(); ++w) {
        Json points = Json::array();
        std::uint64_t mismatches = 0;
        std::vector<double> p99s;
        for (std::size_t l = 0; l < kLoadsPct.size(); ++l) {
            const CellResult& cell = sweep[w * kLoadsPct.size() + l];
            const QeiRunStats& s = cell.stats;
            p99s.push_back(s.sojourn.p99);
            tracer.add(specNames[w] + "/load-" +
                           std::to_string(cell.loadPct),
                       cell.trace);
            table.row({specNames[w],
                       std::to_string(cell.loadPct) + "%",
                       TablePrinter::num(cell.meanGap),
                       TablePrinter::num(s.sojourn.p50),
                       TablePrinter::num(s.sojourn.p99),
                       TablePrinter::num(s.sojourn.p999),
                       TablePrinter::num(s.queueWait.p99)});

            Json p = Json::object();
            p["load_pct"] = cell.loadPct;
            p["offered_gap_cycles"] = cell.meanGap;
            p["sojourn_p50"] = s.sojourn.p50;
            p["sojourn_p99"] = s.sojourn.p99;
            p["sojourn_p999"] = s.sojourn.p999;
            p["sojourn_mean"] = s.sojourn.mean;
            p["queue_wait_p99"] = s.queueWait.p99;
            p["queue_wait_mean"] = s.queueWait.mean;
            p["service_p50"] = s.service.p50;
            p["service_mean"] = s.service.mean;
            p["cycles"] = s.cycles;
            points.push_back(std::move(p));
            mismatches += s.mismatches;
        }
        // The per-load points live directly under the workload name
        // so expectations address them as "<w>.[load_pct=90].<key>".
        report.data()[specNames[w]] = std::move(points);
        const Knee knee = detectKnee(kLoadsPct, p99s);
        knees[specNames[w]] = knee;
        Json summary = Json::object();
        summary["service_gap_cycles"] = gaps[w];
        summary["mismatches"] = mismatches;
        summary["knee_load_pct"] = knee.loadPct;
        summary["knee_p99"] = knee.p99;
        summary["knee_slope_break"] = knee.slopeBreak;
        report.data()[specNames[w] + "_summary"] = std::move(summary);
        std::printf("%s: p99 knee at %d%% load (slope break %.2f "
                    "cycles per load-%%)\n",
                    specNames[w].c_str(), knee.loadPct,
                    knee.slopeBreak);
    }
    table.print();
    std::printf("tails: p99 sojourn grows with offered load while the "
                "service time stays flat — the queue, not the "
                "accelerator, sets the high-load latency\n");

    report.setTable(table);
    report.setValidation(paperExpectations(knees));
    const bool traceOk = tracer.write();
    return report.finish() && traceOk ? 0 : 1;
}
