#include "bench_util.hh"

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "fault/fault_config.hh"
#include "metrics/metrics.hh"
#include "qei/planner.hh"
#include "sim/event_queue.hh"

// Build provenance, injected by bench/CMakeLists.txt; the fallbacks
// keep out-of-tree builds (no git, unknown toolchain) compiling.
#ifndef QEI_GIT_SHA
#define QEI_GIT_SHA "unknown"
#endif
#ifndef QEI_COMPILER
#define QEI_COMPILER "unknown"
#endif
#ifndef QEI_BUILD_FLAGS
#define QEI_BUILD_FLAGS "unknown"
#endif

namespace qei::bench {

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/**
 * Recursively sum every per-run `breakdown` object in @p node (any
 * object carrying both "components" and "end_to_end_cycles") so the
 * artifact's top level gets one whole-harness decomposition.
 */
void
accumulateBreakdowns(const Json& node,
                     std::map<std::string, std::uint64_t>& components,
                     std::uint64_t& end_to_end, std::uint64_t& queries)
{
    if (node.isObject()) {
        if (node.contains("components") &&
            node.contains("end_to_end_cycles")) {
            end_to_end += node.at("end_to_end_cycles").asUint();
            if (const Json* q = node.find("queries"))
                queries += q->asUint();
            for (const auto& [name, comp] :
                 node.at("components").items()) {
                if (const Json* cycles = comp.find("cycles"))
                    components[name] += cycles->asUint();
            }
            return; // breakdowns don't nest
        }
        for (const auto& [key, child] : node.items()) {
            (void)key;
            accumulateBreakdowns(child, components, end_to_end,
                                 queries);
        }
    } else if (node.isArray()) {
        for (const auto& child : node.elements())
            accumulateBreakdowns(child, components, end_to_end,
                                 queries);
    }
}

/**
 * Recursively collect every per-cell "host_wall_ms" in @p node into
 * @p cells, keyed by the dotted path of the object that carries it
 * ("dpdk.schemes.qei-l2"). The harness's own top-level stamp is
 * excluded by the caller (it scans before stamping).
 */
void
collectCellWalls(const Json& node, const std::string& prefix,
                 Json& cells)
{
    if (node.isObject()) {
        for (const auto& [key, child] : node.items()) {
            if (key == "host_wall_ms" && child.isNumber()) {
                cells[prefix.empty() ? "(top)" : prefix] =
                    child.asDouble();
                continue;
            }
            collectCellWalls(
                child, prefix.empty() ? key : prefix + "." + key,
                cells);
        }
    } else if (node.isArray()) {
        std::size_t idx = 0;
        for (const auto& child : node.elements()) {
            collectCellWalls(child, fmt("{}[{}]", prefix, idx), cells);
            ++idx;
        }
    }
}

/**
 * @p text as an unsigned decimal no larger than @p max: digits only
 * (no sign, space or suffix) and no overflow, else false.
 */
bool
parseDecimal(const char* text, unsigned long long max,
             unsigned long long& out)
{
    if (*text < '0' || *text > '9')
        return false;
    errno = 0;
    char* end = nullptr;
    out = std::strtoull(text, &end, 10);
    return *end == '\0' && errno != ERANGE && out <= max;
}

/** "0" / "auto" = all host cores; anything else must be >= 1. */
int
parseThreadCount(const char* text)
{
    if (std::strcmp(text, "auto") == 0)
        return ThreadPool::hardwareThreads();
    unsigned long long n = 0;
    if (!parseDecimal(text, INT_MAX, n)) {
        fatal("--threads / QEI_BENCH_THREADS wants a positive count "
              "or 'auto', got '{}'",
              text);
    }
    return n == 0 ? ThreadPool::hardwareThreads() : static_cast<int>(n);
}

} // namespace

namespace {

[[noreturn]] void
usageError(const char* prog, const std::string& message)
{
    std::fprintf(
        stderr,
        "%s: %s\n"
        "usage: %s [options] [query-cap]\n"
        "  --json <path>      write the JSON artifact to <path>\n"
        "  --trace <path>     write the Perfetto timeline to <path>\n"
        "  --metrics <path>   sample time-series metrics, write the "
        "CSV to <path>\n"
        "  --threads <n>      host threads (0 or 'auto' = all cores)\n"
        "  --faults <spec>    fault-injection mix, e.g. "
        "'pf=0.05,flush=20000,seed=7'\n"
        "  --planner <mode>   offload planner: static|cost|shard "
        "(exported as QEI_PLANNER)\n"
        "  --validate         gate the exit code on the expectation "
        "table\n"
        "  --list-workloads   print workload names + descriptions, "
        "exit 0\n"
        "  --list-schemes     print scheme names + descriptions, "
        "exit 0\n"
        "  --list-traffic     print traffic-source names + "
        "descriptions, exit 0\n"
        "  --list-topologies  print deployment topologies + "
        "descriptions, exit 0\n"
        "  query-cap          positive decimal; caps the queries of "
        "each sweep cell\n",
        prog, message.c_str(), prog);
    std::exit(2);
}

/** One-line description of a canonical integration scheme. */
const char*
schemeDescription(IntegrationScheme scheme)
{
    switch (scheme) {
    case IntegrationScheme::ChaTlb:
        return "accelerator per CHA with a dedicated TLB "
               "(HALO-style)";
    case IntegrationScheme::ChaNoTlb:
        return "accelerator per CHA, translation via the core MMU "
               "over the NoC";
    case IntegrationScheme::DeviceDirect:
        return "single accelerator on its own NoC stop (DASX-style)";
    case IntegrationScheme::DeviceIndirect:
        return "single accelerator behind a standard device "
               "interface (CXL/OpenCAPI)";
    case IntegrationScheme::CoreIntegrated:
        return "this paper: control by the L2/L2-TLB, comparators in "
               "the CHAs";
    }
    return "?";
}

[[noreturn]] void
listWorkloads()
{
    for (const auto& w : makeAllWorkloads()) {
        std::printf("%-10s %s\n", w->name().c_str(),
                    w->description().c_str());
    }
    std::exit(0);
}

[[noreturn]] void
listSchemes()
{
    for (const Topology& t : Topology::allPaper()) {
        std::printf("%-16s %s\n", t.name().c_str(),
                    schemeDescription(t.params().scheme));
    }
    std::exit(0);
}

[[noreturn]] void
listTraffic()
{
    for (const auto& source : traffic::catalog()) {
        std::printf("%-10s %s\n", source->name().c_str(),
                    source->description().c_str());
    }
    std::exit(0);
}

[[noreturn]] void
listTopologies()
{
    // The five canonical scheme topologies, then the generated
    // deployment families (built per run, not enumerable by name).
    for (const Topology& t : Topology::allPaper()) {
        std::printf("%-18s %2d instance%s, qst=%-3d  %s\n",
                    t.name().c_str(), t.acceleratorCount(),
                    t.acceleratorCount() == 1 ? " " : "s",
                    t.params().qstEntries,
                    schemeDescription(t.params().scheme));
    }
    std::printf("%-18s cost-model pick of the best family per "
                "workload (--planner cost)\n",
                "planner-cost");
    std::printf("%-18s heterogeneous per-class union for mixed "
                "traces (docs/planner.md)\n",
                "planner-mix");
    std::printf("%-18s key-space sharded family, optional QST work "
                "stealing (--planner shard)\n",
                "<family>-shardN");
    std::exit(0);
}

} // namespace

BenchOptions
parseBenchArgs(int argc, char** argv)
{
    BenchOptions options;
    const char* prog = argc > 0 ? argv[0] : "bench";
    if (const char* env = std::getenv("QEI_BENCH_THREADS"))
        options.threads = parseThreadCount(env);

    // A flag's operand may follow as the next argument or be glued
    // with '='; a flag at the end of the line with no operand is an
    // error, not a warning — benches must never silently run with a
    // half-applied command line.
    auto operand = [&](int& i, const char* flag) -> const char* {
        if (i + 1 >= argc)
            usageError(prog, fmt("{} needs an argument", flag));
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strcmp(arg, "--json") == 0) {
            options.jsonPath = operand(i, "--json");
        } else if (std::strncmp(arg, "--json=", 7) == 0) {
            options.jsonPath = arg + 7;
        } else if (std::strcmp(arg, "--trace") == 0) {
            options.tracePath = operand(i, "--trace");
        } else if (std::strncmp(arg, "--trace=", 8) == 0) {
            options.tracePath = arg + 8;
        } else if (std::strcmp(arg, "--metrics") == 0) {
            options.metricsPath = operand(i, "--metrics");
        } else if (std::strncmp(arg, "--metrics=", 10) == 0) {
            options.metricsPath = arg + 10;
        } else if (std::strcmp(arg, "--threads") == 0) {
            options.threads = parseThreadCount(operand(i, "--threads"));
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            options.threads = parseThreadCount(arg + 10);
        } else if (std::strcmp(arg, "--faults") == 0) {
            options.faultSpec = operand(i, "--faults");
        } else if (std::strncmp(arg, "--faults=", 9) == 0) {
            options.faultSpec = arg + 9;
        } else if (std::strcmp(arg, "--planner") == 0) {
            options.plannerMode = operand(i, "--planner");
        } else if (std::strncmp(arg, "--planner=", 10) == 0) {
            options.plannerMode = arg + 10;
        } else if (std::strcmp(arg, "--validate") == 0) {
            options.validate = true;
        } else if (std::strcmp(arg, "--list-workloads") == 0) {
            listWorkloads();
        } else if (std::strcmp(arg, "--list-schemes") == 0) {
            listSchemes();
        } else if (std::strcmp(arg, "--list-traffic") == 0) {
            listTraffic();
        } else if (std::strcmp(arg, "--list-topologies") == 0) {
            listTopologies();
        } else if (std::strncmp(arg, "--", 2) == 0 && arg[2] != '\0') {
            usageError(prog, fmt("unknown option '{}'", arg));
        } else if (options.queryCap != 0) {
            usageError(prog, fmt("unexpected argument '{}'", arg));
        } else {
            unsigned long long cap = 0;
            if (!parseDecimal(arg, SIZE_MAX, cap) || cap == 0) {
                usageError(prog, fmt("query cap wants a positive "
                                     "decimal count, got '{}'",
                                     arg));
            }
            options.queryCap = static_cast<std::size_t>(cap);
        }
    }

    if (!options.faultSpec.empty()) {
        // Validate eagerly (parseFaultSpec fatals on a bad spec) and
        // export for every defaultChip() construction in the process,
        // matrix worker threads included — setenv happens here on the
        // main thread, before any fan-out.
        (void)parseFaultSpec(options.faultSpec);
        ::setenv("QEI_FAULTS", options.faultSpec.c_str(), 1);
    }

    if (!options.plannerMode.empty()) {
        // Same pattern as QEI_FAULTS: validate eagerly
        // (parsePlannerMode fatals on a bad name) and export before
        // any matrix fan-out, so every Inherit-mode runQei in the
        // process — worker threads included — resolves it.
        (void)parsePlannerMode(options.plannerMode);
        ::setenv("QEI_PLANNER", options.plannerMode.c_str(), 1);
    }

    if (!options.metricsPath.empty()) {
        // Same pattern as QEI_FAULTS: flip the process-wide switch
        // here on the main thread, before any matrix fan-out, so
        // worker-thread runQei() calls only read it.
        metrics::loadRuntimeConfigFromEnv();
        metrics::runtimeConfig().enabled = true;
    }
    return options;
}

BenchReport::BenchReport(std::string bench_name, BenchOptions options)
    : options_(std::move(options)), root_(Json::object()),
      start_(Clock::now()), simEventsStart_(simEventsExecuted())
{
    root_["bench"] = std::move(bench_name);
    root_["schema_version"] = 3;
    root_["git_sha"] = QEI_GIT_SHA;
    root_["compiler"] = QEI_COMPILER;
    root_["build_flags"] = QEI_BUILD_FLAGS;
}

void
BenchReport::setTable(const TablePrinter& table)
{
    root_["table"] = table.toJson();
}

void
BenchReport::setValidation(validate::Suite suite)
{
    suite_ = std::move(suite);
    haveSuite_ = true;
}

bool
BenchReport::finish()
{
    const double wallMs = msSince(start_);

    // Evaluate the paper expectations against the payload as filled
    // so far; the block is embedded in every artifact so that
    // qei-validate (and the generated EXPERIMENTS.md) work from the
    // same metadata whether or not --validate was passed.
    bool validationOk = true;
    if (haveSuite_) {
        const std::vector<validate::Outcome> outcomes =
            validate::evaluate(suite_, root_);
        root_["validation"] = validate::toJson(suite_, outcomes);
        if (options_.validate) {
            validate::printOutcomes(root_.at("bench").asString(),
                                    outcomes);
            validationOk =
                validate::overall(outcomes) != validate::Verdict::Fail;
        }
    } else if (options_.validate) {
        std::fprintf(stderr,
                     "--validate: no expectation suite declared\n");
        validationOk = false;
    }
    // Host-side self-metrics: how much simulated work this harness
    // executed and how fast the host chewed through it. The cell scan
    // runs before the top-level host_wall_ms stamp below, so `cells`
    // holds only the per-cell walls the payload carries.
    {
        const std::uint64_t simEvents =
            simEventsExecuted() - simEventsStart_;
        Json host = Json::object();
        host["sim_events"] = simEvents;
        host["sim_events_per_sec"] =
            wallMs > 0.0
                ? static_cast<double>(simEvents) / (wallMs / 1000.0)
                : 0.0;
        host["wall_ms"] = wallMs;
        Json cells = Json::object();
        collectCellWalls(root_, "", cells);
        host["cells"] = std::move(cells);
        root_["host"] = std::move(host);
    }
    root_["host_wall_ms"] = wallMs;
    root_["threads"] = static_cast<std::int64_t>(options_.threads);

    // Fold every per-run breakdown in the payload into one
    // whole-harness decomposition (the Fig. 8 view of this artifact).
    {
        std::map<std::string, std::uint64_t> components;
        std::uint64_t endToEnd = 0;
        std::uint64_t queries = 0;
        accumulateBreakdowns(root_, components, endToEnd, queries);
        if (queries > 0) {
            Json breakdown = Json::object();
            breakdown["queries"] = queries;
            breakdown["end_to_end_cycles"] = endToEnd;
            breakdown["mean_cycles_per_query"] =
                static_cast<double>(endToEnd) /
                static_cast<double>(queries);
            Json comps = Json::object();
            for (const auto& [name, cycles] : components) {
                Json one = Json::object();
                one["cycles"] = cycles;
                one["cycles_per_query"] =
                    static_cast<double>(cycles) /
                    static_cast<double>(queries);
                one["share"] = endToEnd
                                   ? static_cast<double>(cycles) /
                                         static_cast<double>(endToEnd)
                                   : 0.0;
                comps[name] = std::move(one);
            }
            breakdown["components"] = std::move(comps);
            root_["breakdown"] = std::move(breakdown);
        }
    }
    std::printf("host wall time: %.1f ms (threads=%d)\n", wallMs,
                options_.threads);

    // Render the process-wide Recorder to the --metrics CSV and clear
    // it, so back-to-back reports in one process don't leak runs into
    // each other's files.
    if (!options_.metricsPath.empty()) {
        metrics::Recorder& recorder = metrics::Recorder::global();
        std::ofstream csv(options_.metricsPath);
        if (csv) {
            csv << recorder.csv();
            csv.flush();
        }
        if (!csv) {
            std::fprintf(stderr, "failed to write %s\n",
                         options_.metricsPath.c_str());
            recorder.clear();
            return false;
        }
        std::printf("wrote %s (%zu sampled runs)\n",
                    options_.metricsPath.c_str(), recorder.size());
        recorder.clear();
    }
    if (!enabled())
        return validationOk;
    std::ofstream out(options_.jsonPath);
    if (out) {
        out << root_.dump(2) << '\n';
        out.flush();
    }
    if (!out) {
        std::fprintf(stderr, "failed to write %s\n",
                     options_.jsonPath.c_str());
        return false;
    }
    std::printf("wrote %s\n", options_.jsonPath.c_str());
    return validationOk;
}

namespace {

/** One (workload, scheme-or-baseline) experiment's raw outcome. */
struct CellResult
{
    std::string workloadName;
    CoreRunResult baseline;
    Prepared prepared;
    QeiRunStats stats;
    ChipActivity activity;
    trace::TraceBuffer traceBuf;
    double wallMs = 0.0;
};

} // namespace

std::vector<WorkloadRun>
runWorkloadMatrix(const std::vector<WorkloadFactory>& workloads,
                  const MatrixOptions& options)
{
    // Cell layout: for each workload, one baseline cell followed by
    // one cell per topology — index math keeps reassembly
    // deterministic.
    const std::size_t stride = 1 + options.topologies.size();
    const std::size_t cellCount = workloads.size() * stride;
    const bool armTrace =
        options.captureTrace || !options.tracePath.empty();

    auto runCell = [&](std::size_t index) -> CellResult {
        const auto start = Clock::now();
        const std::size_t w = index / stride;
        const std::size_t s = index % stride; // 0 = baseline
        CellResult out;

        // Private Workload + World per cell: bit-identical to the
        // serial path because build/prepare are deterministic in the
        // seed, and safe because cells share no mutable state.
        std::unique_ptr<Workload> workload = workloads[w]();
        out.workloadName = workload->name();
        World world(options.seed, options.chip);
        workload->build(world);
        const std::size_t n = options.queries == 0
                                  ? workload->defaultQueries()
                                  : options.queries;
        out.prepared = workload->prepare(world, n);

        // Arm after build/prepare so the timeline covers only the
        // measured region. The sink is this cell's private World
        // member, so capture stays race-free under any --threads.
        if (armTrace) {
            world.traceSink.enable(
                options.traceCapacity
                    ? options.traceCapacity
                    : trace::TraceSink::kDefaultCapacity);
        }

        if (s == 0) {
            out.baseline = runBaseline(world, out.prepared);
        } else {
            const Topology& topo = options.topologies[s - 1];
            // Cost-model class for this cell; Inherit mode means the
            // planner only engages under --planner / QEI_PLANNER.
            PlannerConfig plannerCfg;
            plannerCfg.workload = out.workloadName;
            out.stats = runQei(
                world, out.prepared,
                DriverConfig(topo)
                    .withMode(options.mode)
                    .withPollBatch(options.pollBatch)
                    .withBatch(options.batch)
                    .withLabel(out.workloadName + "/" + topo.name())
                    .withPlanner(plannerCfg));
        }
        out.activity = ChipActivity::capture(world.hierarchy);
        if (armTrace)
            out.traceBuf = world.traceSink.drain();
        out.wallMs = msSince(start);
        return out;
    };

    std::vector<CellResult> cells =
        parallelMap(options.threads, cellCount, runCell);

    std::vector<WorkloadRun> runs;
    runs.reserve(workloads.size());
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        CellResult& base = cells[w * stride];
        WorkloadRun run;
        run.name = std::move(base.workloadName);
        run.baseline = base.baseline;
        run.prepared = std::move(base.prepared);
        run.activity["baseline"] = base.activity;
        run.cellWallMs["baseline"] = base.wallMs;
        run.hostWallMs = base.wallMs;
        if (armTrace)
            run.traces["baseline"] = std::move(base.traceBuf);
        for (std::size_t s = 0; s < options.topologies.size(); ++s) {
            CellResult& cell = cells[w * stride + 1 + s];
            const std::string name = options.topologies[s].name();
            run.schemes[name] = cell.stats;
            run.activity[name] = cell.activity;
            if (armTrace)
                run.traces[name] = std::move(cell.traceBuf);
            run.cellWallMs[name] = cell.wallMs;
            run.hostWallMs += cell.wallMs;
        }
        runs.push_back(std::move(run));
    }

    if (!options.tracePath.empty())
        writeMatrixTraces(runs, options.tracePath);
    return runs;
}

namespace {

/** `out.json` -> `out`; other paths pass through unchanged. */
std::string
traceStem(const std::string& path)
{
    constexpr const char* kExt = ".json";
    constexpr std::size_t kExtLen = 5;
    if (path.size() > kExtLen &&
        path.compare(path.size() - kExtLen, kExtLen, kExt) == 0)
        return path.substr(0, path.size() - kExtLen);
    return path;
}

bool
writeJsonFile(const std::string& path, const Json& doc)
{
    std::ofstream out(path);
    if (out) {
        out << doc.dump() << '\n';
        out.flush();
    }
    if (!out) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return false;
    }
    return true;
}

} // namespace

bool
writeMatrixTraces(const std::vector<WorkloadRun>& runs,
                  const std::string& path)
{
    const std::string stem = traceStem(path);
    Json merged = Json::array();
    int pid = 1;
    bool ok = true;
    std::size_t files = 0;
    for (const auto& run : runs) {
        for (const auto& [label, buf] : run.traces) {
            const std::string process = run.name + "/" + label;
            trace::appendPerfettoEvents(merged, buf, pid, process);
            ++pid;
            ok = writeJsonFile(stem + "." + run.name + "." + label +
                                   ".json",
                               trace::perfettoJson(buf, process)) &&
                 ok;
            ++files;
        }
    }
    Json doc = Json::object();
    doc["traceEvents"] = std::move(merged);
    doc["displayTimeUnit"] = "ms";
    ok = writeJsonFile(path, doc) && ok;
    if (ok) {
        std::printf("wrote %s (+%zu per-cell traces)\n", path.c_str(),
                    files);
    }
    return ok;
}

TraceCollector::TraceCollector(std::string trace_path,
                               std::size_t capacity)
    : path_(std::move(trace_path)), capacity_(capacity)
{
}

void
TraceCollector::arm(World& world)
{
    if (!enabled())
        return;
    world.traceSink.enable(capacity_ ? capacity_
                                     : trace::TraceSink::kDefaultCapacity);
}

void
TraceCollector::collect(const std::string& label, World& world)
{
    if (!enabled())
        return;
    add(label, world.traceSink.drain());
}

void
TraceCollector::add(const std::string& label,
                    const trace::TraceBuffer& buf)
{
    if (!enabled())
        return;
    trace::appendPerfettoEvents(events_, buf, nextPid_, label);
    ++nextPid_;
}

bool
TraceCollector::write()
{
    if (!enabled())
        return true;
    Json doc = Json::object();
    doc["traceEvents"] = std::move(events_);
    doc["displayTimeUnit"] = "ms";
    events_ = Json::array();
    if (!writeJsonFile(path_, doc))
        return false;
    std::printf("wrote %s\n", path_.c_str());
    return true;
}

Json
toJson(const CoreRunResult& result)
{
    Json out = Json::object();
    out["cycles"] = result.cycles;
    out["instructions"] = result.instructions;
    out["loads"] = result.loads;
    out["stores"] = result.stores;
    out["queries"] = result.queries;
    out["backend_stall_cycles"] = result.backendStallCycles;
    out["frontend_stall_cycles"] = result.frontendStallCycles;
    out["ipc"] = result.ipc();
    out["cycles_per_query"] = result.cyclesPerQuery();
    return out;
}

Json
toJson(const QeiRunStats& stats)
{
    Json out = Json::object();
    out["cycles"] = stats.cycles;
    out["queries"] = stats.queries;
    out["core_instructions"] = stats.coreInstructions;
    out["mismatches"] = stats.mismatches;
    out["exceptions"] = stats.exceptions;
    out["mem_accesses"] = stats.memAccesses;
    out["micro_ops"] = stats.microOps;
    out["remote_compares"] = stats.remoteCompares;
    out["avg_qst_occupancy"] = stats.avgQstOccupancy;
    out["max_inflight_observed"] = stats.maxInFlightObserved;
    out["cycles_per_query"] = stats.cyclesPerQuery();

    // Fault-injection / recovery accounting (zeros when fault-free).
    out["faults_injected"] = stats.faultsInjected;
    out["sw_fallbacks"] = stats.swFallbacks;
    out["sw_fallback_cycles"] = stats.swFallbackCycles;
    out["fault_flushes"] = stats.faultFlushes;
    out["qst_backoffs"] = stats.qstBackoffs;
    // Decimal string: the digest uses all 64 bits and Json numbers
    // are signed.
    out["result_checksum"] = fmt("{}", stats.resultChecksum);

    // QUERY_BATCH amortization block, only for batched runs — scalar
    // artifacts keep their historical shape byte-for-byte.
    if (stats.batches > 0) {
        Json batch = Json::object();
        batch["batches"] = stats.batches;
        batch["batched_queries"] = stats.batchedQueries;
        batch["admission_backoffs"] = stats.batchBackoffs;
        batch["header_hits"] = stats.batchHeaderHits;
        batch["line_hits"] = stats.batchLineHits;
        out["batch"] = std::move(batch);
    }

    // Offload-planner block, only when a planner was consulted —
    // planner-free artifacts keep their historical shape.
    if (stats.plannerDecisions > 0) {
        Json planner = Json::object();
        planner["decisions"] = stats.plannerDecisions;
        planner["core_executes"] = stats.plannerCoreExecutes;
        out["planner"] = std::move(planner);
    }

    // Admission / multi-tenant serving block, only when the serving
    // path ran — every historical artifact keeps its exact shape.
    if (!stats.tenants.empty() || stats.sheddedQueries > 0 ||
        stats.admittedQueries > 0) {
        Json adm = Json::object();
        adm["admitted"] = stats.admittedQueries;
        adm["shed"] = stats.sheddedQueries;
        adm["degraded"] = stats.degradedQueries;
        adm["admitted_checksum"] =
            fmt("{}", stats.admittedChecksum);
        Json tenants = Json::array();
        for (const auto& t : stats.tenants) {
            Json one = Json::object();
            one["tenant"] = t.tenant;
            one["offered"] = t.offered;
            one["admitted"] = t.admitted;
            one["shed"] = t.shed;
            one["degraded"] = t.degraded;
            one["sojourn_p50"] = t.sojournP50;
            one["sojourn_p99"] = t.sojournP99;
            one["sojourn_mean"] = t.sojournMean;
            one["occupancy_mean"] = t.occupancyMean;
            tenants.push_back(std::move(one));
        }
        adm["tenants"] = std::move(tenants);
        out["admission"] = std::move(adm);
    }

    // Sampled time series, only when the run had a sampler attached
    // (--metrics): unsampled artifacts keep their historical shape
    // byte-for-byte.
    if (stats.metrics && stats.metrics->samples > 0)
        out["metrics"] = stats.metrics->toJson();

    // Per-component latency decomposition (Fig. 8 view). Always
    // emitted, even all-zero, so artifacts have a stable shape and
    // BenchReport::finish() can aggregate without special cases.
    Json breakdown = Json::object();
    breakdown["queries"] = stats.breakdownQueries;
    breakdown["end_to_end_cycles"] = stats.breakdownEndToEnd;
    breakdown["mean_cycles_per_query"] =
        stats.breakdownQueries
            ? static_cast<double>(stats.breakdownEndToEnd) /
                  static_cast<double>(stats.breakdownQueries)
            : 0.0;
    Json comps = Json::object();
    for (const auto& [name, cycles] : stats.breakdownCycles) {
        Json one = Json::object();
        one["cycles"] = cycles;
        one["cycles_per_query"] =
            stats.breakdownQueries
                ? static_cast<double>(cycles) /
                      static_cast<double>(stats.breakdownQueries)
                : 0.0;
        one["share"] = stats.breakdownEndToEnd
                           ? static_cast<double>(cycles) /
                                 static_cast<double>(
                                     stats.breakdownEndToEnd)
                           : 0.0;
        comps[name] = std::move(one);
    }
    breakdown["components"] = std::move(comps);
    out["breakdown"] = std::move(breakdown);
    return out;
}

Json
toJson(const WorkloadRun& run)
{
    Json out = Json::object();
    out["workload"] = run.name;
    out["baseline"] = toJson(run.baseline);
    out["host_wall_ms"] = run.hostWallMs;
    {
        auto it = run.cellWallMs.find("baseline");
        if (it != run.cellWallMs.end())
            out["baseline"]["host_wall_ms"] = it->second;
    }
    Json schemes = Json::object();
    for (const auto& [name, stats] : run.schemes) {
        Json s = toJson(stats);
        s["speedup"] = run.speedup(stats);
        auto wall = run.cellWallMs.find(name);
        if (wall != run.cellWallMs.end())
            s["host_wall_ms"] = wall->second;
        schemes[name] = std::move(s);
    }
    out["schemes"] = std::move(schemes);
    return out;
}

std::vector<std::string>
schemeNames()
{
    std::vector<std::string> names;
    for (const auto& s : SchemeConfig::allSchemes())
        names.push_back(s.name());
    return names;
}

} // namespace qei::bench
