/**
 * @file
 * Shared plumbing for the per-figure/table benchmark harnesses: build
 * a workload once, run the software baseline and every integration
 * scheme on identical query streams, and report.
 *
 * The (workload x scheme) matrix most harnesses run is embarrassingly
 * parallel — every cell builds its own World — so runWorkloadMatrix()
 * fans the cells across a qei::ThreadPool. Results are assembled in
 * workload/scheme order regardless of completion order, making the
 * numbers bit-identical at any `--threads` setting.
 */

#ifndef QEI_BENCH_BENCH_UTIL_HH
#define QEI_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/table_printer.hh"
#include "common/thread_pool.hh"
#include "power/energy_model.hh"
#include "validate/expectation.hh"
#include "workloads/workload.hh"

namespace qei::bench {

/** Command-line options shared by every harness. */
struct BenchOptions
{
    /** `--json DIR`: each report writes DIR/BENCH_<bench>.json; empty
     *  = text output only. */
    std::string jsonDir;
    /**
     * Destination of the merged Perfetto timeline (`--trace <path>`);
     * non-empty enables trace capture of every simulated cell, and
     * each cell also gets `<stem>.<label>.json` next to it (see
     * BenchReport::finish). Empty — the default — captures nothing.
     */
    std::string tracePath;
    /**
     * Destination of the metrics time-series CSV (`--metrics <path>`);
     * non-empty enables the per-run MetricsSampler (see src/metrics/).
     * Empty — the default — leaves sampling off, so artifacts are
     * byte-identical to a run without the subsystem.
     */
    std::string metricsPath;
    /**
     * Host threads for experiment fan-out (runWorkloadMatrix /
     * parallelMap). 1 = serial; defaults from QEI_BENCH_THREADS.
     */
    int threads = 1;
    /**
     * `--validate`: print the per-expectation PASS/WARN/FAIL table
     * and make any FAIL set a non-zero exit code. The expectation
     * table itself is always evaluated and embedded in the `--json`
     * artifact; this flag only controls the printed report and the
     * exit-code gate.
     */
    bool validate = false;
    /**
     * `--faults <spec>`: fault-injection mix for this run (see
     * fault/fault_config.hh for the grammar). parseBenchArgs validates
     * the spec and exports it as QEI_FAULTS so every defaultChip()
     * construction in the process — including matrix cells on worker
     * threads — picks it up.
     */
    std::string faultSpec;
    /**
     * `--planner static|cost|shard`: process-wide offload-planner
     * mode. parseBenchArgs validates the name and exports it as
     * QEI_PLANNER, which every runQei() whose DriverConfig leaves the
     * planner mode at Inherit — i.e. every harness cell that does not
     * pin a mode explicitly — resolves at run start (see
     * src/qei/planner.hh). Empty = flag absent.
     */
    std::string plannerMode;
    /**
     * The one optional positional argument: a decimal query cap that
     * the sweep harnesses apply per cell (CI smoke runs use a reduced
     * count). 0 = no cap.
     */
    std::size_t queryCap = 0;

    /** @p queries, lowered to queryCap when a cap is set. */
    std::size_t
    capped(std::size_t queries) const
    {
        return queryCap != 0 && queryCap < queries ? queryCap : queries;
    }
};

/**
 * Parse the harness command line. Recognises `--json <dir>`,
 * `--json=<dir>`, `--trace <path>`, `--trace=<path>`,
 * `--metrics <path>`, `--metrics=<path>` (enables time-series
 * sampling and writes the CSV there), `--threads <n>`, `--threads=<n>`
 * (n = 0 or "auto" uses every host core; anything but a whole count
 * in int range is fatal), `--faults <spec>`, `--faults=<spec>`,
 * `--planner <mode>`, `--planner=<mode>` (static|cost|shard; exported
 * as QEI_PLANNER), and `--validate`; QEI_BENCH_THREADS seeds the
 * thread default. `--list-workloads`, `--list-schemes`,
 * `--list-traffic`, and `--list-topologies` print the available names
 * with descriptions and exit(0), so scripts can enumerate instead of
 * hardcoding. One non-option argument is accepted, as
 * BenchOptions::queryCap. Unknown `--flags`, flags missing their
 * operand, a query cap that is not a positive decimal count and a
 * second non-option argument print a usage message and exit(2) — a
 * typo must not silently run the un-modified experiment.
 */
BenchOptions parseBenchArgs(int argc, char** argv);

/**
 * Collector for one artifact's machine-readable results.
 *
 * Harnesses fill data() with their figure-specific payload (and
 * usually mirror the printed table via setTable()); the constructor
 * stamps build provenance (`schema_version`, `git_sha`, `compiler`,
 * `build_flags`); finish() stamps the host-performance fields
 * (`host_wall_ms`, `threads`, and the `host` self-metrics block with
 * `sim_events` / `sim_events_per_sec` and every per-cell
 * `host_wall_ms` found in the payload), aggregates every per-run
 * `breakdown` found in the payload into a top-level `breakdown`,
 * and writes the artifact to the `--json` directory, if one was given.
 */
class BenchReport
{
  public:
    BenchReport(std::string bench_name, BenchOptions options);

    /** Root object; preloaded with {"bench": <name>}. */
    Json& data() { return root_; }

    /** Mirror the printed table under "table". */
    void setTable(const TablePrinter& table);

    /**
     * Declare the harness's paper expectations. They are evaluated
     * against the payload inside finish() — call this after the
     * figure data has been added to data().
     */
    void setValidation(validate::Suite suite);

    /**
     * Evaluate the expectation suite (when one was set) against the
     * payload and embed the `validation` block; print the
     * PASS/WARN/FAIL table under `--validate`; stamp host-perf
     * fields, print the total host wall time, and write the artifact
     * to the `--json` directory; then finishAll()'s telemetry.
     * @return false on I/O failure, or — under `--validate` only —
     * when any expectation FAILs.
     */
    bool finish() { return finishAll({this, 1}); }

    /**
     * Finish each of @p reports (artifacts of one process), then write
     * the process's telemetry once, with the first report's options:
     * the metrics::Recorder's cells — the CSV to the `--metrics` path;
     * the merged Perfetto file to the `--trace` path plus one file per
     * cell at `<stem>.<label with '/' -> '.'>.json`, ordered by label.
     */
    static bool finishAll(std::span<BenchReport> reports);

  private:
    /** finish() without the telemetry. */
    bool finishArtifact();

    BenchOptions options_;
    Json root_;
    validate::Suite suite_;
    bool haveSuite_ = false;
    std::chrono::steady_clock::time_point start_;
    /** simEventsExecuted() at construction, for the `host` block's
     *  per-harness delta. */
    std::uint64_t simEventsStart_ = 0;
};

/** Results for one workload across the baseline and all schemes. */
struct WorkloadRun
{
    std::string name;
    CoreRunResult baseline;
    Prepared prepared;
    /** Keyed by Topology::name() (== SchemeConfig::name() for the
     *  five canonical scheme topologies). */
    std::map<std::string, QeiRunStats> schemes;
    /** Activity deltas for the energy model, keyed like `schemes`,
     *  plus "baseline". */
    std::map<std::string, ChipActivity> activity;
    /** Host wall time of each cell, keyed like `activity`. */
    std::map<std::string, double> cellWallMs;
    /** Summed host wall time of this workload's cells. */
    double hostWallMs = 0.0;

    double
    speedup(const std::string& scheme) const
    {
        auto it = schemes.find(scheme);
        return it == schemes.end()
                   ? 0.0
                   : speedupOf(baseline, it->second);
    }

    /** Speedup for stats already looked up — avoids a second find. */
    double
    speedup(const QeiRunStats& stats) const
    {
        return speedupOf(baseline, stats);
    }
};

/** Knobs for a full (workload x scheme) matrix run. */
struct MatrixOptions
{
    /**
     * Machine description every cell's World is built from. The
     * default picks up QEI_FAULTS, so `--faults` reaches matrix
     * harnesses without per-harness wiring; fault harnesses override
     * `chip.faults` explicitly per mix.
     */
    ChipConfig chip = defaultChip();
    /** Queries per workload; 0 = each workload's default. */
    std::size_t queries = 0;
    /** Deployments to run per workload (one cell each). */
    std::vector<Topology> topologies = Topology::allPaper();
    QueryMode mode = QueryMode::Blocking;
    std::uint64_t seed = 42;
    /** Poll batch for QueryMode::NonBlocking. */
    int pollBatch = 32;
    /** QUERY_BATCH config for every cell; default scalar (size 1). */
    BatchConfig batch;
    /** Host threads; 1 runs every cell inline on this thread. */
    int threads = 1;
};

/**
 * Run the full (workload x topology) matrix, one baseline cell plus
 * one cell per topology for every workload, fanned across
 * min(threads, cells) host threads. Every cell constructs its own
 * World/Workload/QeiSystem from the same seed, so the returned runs
 * are bit-identical to the serial path at any thread count; results
 * come back in (workload, topology) order. Cells are labelled
 * "workload/topology" and "workload/baseline" for telemetry.
 */
std::vector<WorkloadRun> runWorkloadMatrix(
    const std::vector<WorkloadFactory>& workloads,
    const MatrixOptions& options);

/** Scheme names in the paper's presentation order. */
std::vector<std::string> schemeNames();

/**
 * Closed-loop core-integrated cycles/query of workload
 * @p workload_idx (a makeWorkloadFactories() index) on a World seeded
 * @p seed with @p queries queries: the saturation service rate the
 * open-loop load sweeps are anchored to. Deterministic in its
 * arguments, so every host thread computes the same gap. The run is
 * the telemetry cell "calibrate/<workload>".
 */
double calibrateServiceGap(std::size_t workload_idx,
                           std::uint64_t seed, std::size_t queries);

// -- JSON views of the result structs, for BenchReport payloads --

Json toJson(const CoreRunResult& result);
Json toJson(const QeiRunStats& stats);

/**
 * One workload's full cross-scheme result: baseline, and per-scheme
 * run stats with raw `speedup` doubles and per-cell `host_wall_ms`.
 */
Json toJson(const WorkloadRun& run);

} // namespace qei::bench

#endif // QEI_BENCH_BENCH_UTIL_HH
