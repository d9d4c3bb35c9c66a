/**
 * @file
 * The repository benchmark. One process runs one named workload
 * through the simulator's public calls, checks every output, and
 * prints each metric by name and unit; the last line of standard
 * output is one JSON object {"correct", "attempted", "failed",
 * "metrics"}.
 *
 * It measures two kinds of time and never mixes them:
 *  - host seconds: what the simulator costs whoever runs it;
 *  - simulated cycles: what the modelled QEI chip delivers. These are
 *    deterministic for a seed and must repeat exactly.
 *
 * A run repeats its workload until --seconds have elapsed. Set-up time
 * is the median over the repetitions; the other host times take each
 * call at its fastest repetition. With --trace 0 it prints the
 * end-to-end metrics; with --trace 1 it alternates untraced and traced
 * repetitions and prints the per-layer metrics, folded from spans
 * recorded around every public call. README.md defines every metric
 * and says why each workload exists.
 *
 * Usage: qei_perfbench --workload <paper-matrix|sim-closed|serving>
 *            --seed <n> --seconds <s> --trace <0|1>
 *            [--traffic-seed <n>] [--threads <n>] [--spans <path>]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/format.hh"
#include "common/hash.hh"
#include "common/json.hh"
#include "power/energy_model.hh"
#include "qei/driver.hh"
#include "sim/event_queue.hh"
#include "traffic/traffic.hh"
#include "workloads/workload.hh"

using namespace qei;

namespace {

using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------------
// Fixed workload parameters. They are written down once, from the
// code as it stood when the benchmark was defined, and are never
// recalibrated from the code under test: a faster modelled
// accelerator must show up as a lower p99 at the same offered rate.

/** Host threads runWorkloadMatrix fans paper-matrix's 30 cells over. */
constexpr int kMatrixThreads = 2;

/** Queries per structure in sim-closed (workload defaults: 2500 and
 *  900); sized so simulation, not build, dominates the wall time. */
constexpr std::size_t kSimClosedDpdkQueries = 20000;
constexpr std::size_t kSimClosedRocksdbQueries = 6000;

/** Issuing cores of sim-closed's multi-core cell. */
constexpr int kMultiCoreIssuers = 4;

/** QUERY_BATCH size of sim-closed's batch cell. */
constexpr int kBatchSize = 32;

/** Queries per open-loop rate point in serving (>= 1000 needed for a
 *  p99 with ten samples beyond it). */
constexpr std::size_t kServingQueries = 16000;

/** Tenants the serving cell splits the `mid` stream over. */
constexpr int kServingTenants = 4;

/**
 * Offered-rate grid of serving, as mean Poisson inter-arrival gaps in
 * simulated cycles, fastest arrivals last. `low`, `mid` and `high` are
 * about 50/80/95% of the dpdk core-integrated open-loop capacity
 * measured when the benchmark was defined; the points past capacity
 * are there on purpose, so the grid always shows a clipped point.
 */
struct GridPoint
{
    const char* name; ///< "low"/"mid"/"high", or "" for grid-only
    double meanGapCycles;
};
const std::vector<GridPoint> kRateGrid{
    {"low", 46.0}, {"", 36.0},   {"", 32.0}, {"mid", 29.0},
    {"", 27.0},    {"", 26.0},   {"", 25.0}, {"high", 24.5},
    {"", 24.0},    {"", 23.5},   {"", 23.0}, {"", 22.5},
    {"", 22.0},    {"", 20.0},   {"", 2.0},
};

/** Sojourn p99 limit of max_rate_under_slo, in simulated cycles. */
constexpr double kSloP99Cycles = 2000.0;

/** Repetitions a run makes at least, whatever --seconds says. */
constexpr int kMinReps = 3;

const std::vector<std::string> kPaperStructures{"dpdk", "jvm", "rocksdb",
                                                "snort", "flann"};
const std::vector<std::string> kPaths{"blocking", "nonblocking", "batch",
                                      "multicore", "openloop", "serving"};
const std::vector<std::string> kRates{"low", "mid", "high"};

// ------------------------------------------------------------------
// Command line

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t trafficSeed = 0;
    double seconds = 0.0;
    bool trace = false;
    int threads = kMatrixThreads;
    std::string spansPath;
};

[[noreturn]] void
usage(const std::string& problem)
{
    std::fprintf(stderr,
                 "qei_perfbench: %s\n"
                 "usage: qei_perfbench --workload "
                 "<paper-matrix|sim-closed|serving> --seed <n> "
                 "--seconds <s> --trace <0|1> [--traffic-seed <n>] "
                 "[--threads <n>] [--spans <path>]\n",
                 problem.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string& flag, const std::string& text)
{
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || end == nullptr || *end != '\0')
        usage(flag + " needs a non-negative integer, got '" + text + "'");
    return v;
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    bool haveSeed = false;
    bool haveTrafficSeed = false;
    bool haveSeconds = false;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing operand for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = parseUnsigned(flag, value);
            haveSeed = true;
        } else if (flag == "--traffic-seed") {
            o.trafficSeed = parseUnsigned(flag, value);
            haveTrafficSeed = true;
        } else if (flag == "--seconds") {
            const std::uint64_t s = parseUnsigned(flag, value);
            if (s == 0 || s > 3600)
                usage("--seconds must be in [1, 3600]");
            o.seconds = static_cast<double>(s);
            haveSeconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            o.trace = value == "1";
            haveTrace = true;
        } else if (flag == "--threads") {
            const std::uint64_t t = parseUnsigned(flag, value);
            if (t == 0 || t > 256)
                usage("--threads must be in [1, 256]");
            o.threads = static_cast<int>(t);
        } else if (flag == "--spans") {
            o.spansPath = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (o.workload != "paper-matrix" && o.workload != "sim-closed" &&
        o.workload != "serving")
        usage("--workload must be paper-matrix, sim-closed or serving");
    if (!haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds and --trace are required");
    if (!haveTrafficSeed)
        o.trafficSeed = o.seed;
    return o;
}

// ------------------------------------------------------------------
// Host-time spans

/**
 * Spans around the public calls of one run. Every call is timed, since
 * the untraced end-to-end metrics need the durations too; only while
 * recording does the log keep the spans — name, start, end, parent
 * span, cell and repetition — in memory, to fold per-layer self times
 * and to be written out when the run ends.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        int rep = 0;
        int cell = 0;
        int parent = -1;
        double start = 0.0; ///< host seconds since the run began
        double end = 0.0;
    };

    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    void setRecording(bool on) { recording_ = on; }
    bool recording() const { return recording_; }
    void setRep(int rep) { rep_ = rep; }

    /** Open the cell (one structure's set-up or one run call) every
     *  following span belongs to, until the next beginCell(). */
    void
    beginCell(const std::string& label)
    {
        if (!recording_)
            return;
        cells_.push_back(label);
        cell_ = static_cast<int>(cells_.size()) - 1;
    }

    /** Run @p fn inside a span named @p name; @return its host
     *  seconds. */
    double
    time(const std::string& name, const std::function<void()>& fn)
    {
        const Clock::time_point start = Clock::now();
        int index = -1;
        if (recording_) {
            index = static_cast<int>(spans_.size());
            spans_.push_back({name, rep_, cell_, open_, at(start), 0.0});
            open_ = index;
        }
        fn();
        const Clock::time_point end = Clock::now();
        if (index >= 0) {
            Span& s = spans_[static_cast<std::size_t>(index)];
            s.end = at(end);
            open_ = s.parent;
        }
        return std::chrono::duration<double>(end - start).count();
    }

    /**
     * Self seconds per span name in repetition @p rep: each span's
     * duration minus its direct children's. Spans nest strictly (the
     * benchmark calls the program from one thread), so children never
     * overlap.
     */
    std::map<std::string, double>
    selfSeconds(int rep) const
    {
        std::map<std::string, double> out;
        for (const Span& s : spans_) {
            if (s.rep != rep)
                continue;
            const double d = s.end - s.start;
            out[s.name] += d;
            if (s.parent >= 0)
                out[spans_[static_cast<std::size_t>(s.parent)].name] -= d;
        }
        return out;
    }

    Json
    toJson() const
    {
        Json cells = Json::array();
        for (const std::string& c : cells_)
            cells.push_back(c);
        Json spans = Json::array();
        for (const Span& s : spans_) {
            Json j = Json::object();
            j["name"] = s.name;
            j["rep"] = s.rep;
            j["cell"] = s.cell;
            j["parent"] = s.parent;
            j["start_s"] = s.start;
            j["end_s"] = s.end;
            spans.push_back(std::move(j));
        }
        Json doc = Json::object();
        doc["cells"] = std::move(cells);
        doc["spans"] = std::move(spans);
        return doc;
    }

  private:
    double
    at(Clock::time_point t) const
    {
        return std::chrono::duration<double>(t - origin_).count();
    }

    Clock::time_point origin_;
    bool recording_ = false;
    int rep_ = 0;
    int cell_ = 0;
    int open_ = -1;
    std::vector<std::string> cells_;
    std::vector<Span> spans_;
};

// ------------------------------------------------------------------
// Simulated-statistics digest

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * Every simulated number a workload read, as "key=value" lines, and
 * the FNV-1a hash of them. A change that claims to touch only host
 * speed must leave the hash identical.
 */
class SimDigest
{
  public:
    void
    add(const std::string& key, double value)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        text_ += key + "=" + buf + "\n";
        ++count_;
    }

    void
    addHex(const std::string& key, std::uint64_t value)
    {
        text_ += key + "=" + hex16(value) + "\n";
        ++count_;
    }

    std::uint64_t hash() const
    {
        return fnv1a64(text_.data(), text_.size());
    }
    std::size_t count() const { return count_; }

  private:
    std::string text_;
    std::size_t count_ = 0;
};

void
digestLatency(SimDigest& d, const std::string& key,
              const LatencyDigest& l)
{
    d.add(key + ".count", static_cast<double>(l.count));
    d.add(key + ".mean", l.mean);
    d.add(key + ".max", l.max);
    d.add(key + ".p50", l.p50);
    d.add(key + ".p99", l.p99);
    d.add(key + ".p999", l.p999);
}

void
digestActivity(SimDigest& d, const std::string& key,
               const ChipActivity& a)
{
    d.add(key + ".l1", static_cast<double>(a.l1Accesses));
    d.add(key + ".l2", static_cast<double>(a.l2Accesses));
    d.add(key + ".llc", static_cast<double>(a.llcAccesses));
    d.add(key + ".dram", static_cast<double>(a.dramAccesses));
    d.add(key + ".noc_bytes", static_cast<double>(a.nocBytes));
}

void
digestQei(SimDigest& d, const std::string& key, const QeiRunStats& s)
{
    d.add(key + ".cycles", static_cast<double>(s.cycles));
    d.add(key + ".queries", static_cast<double>(s.queries));
    d.add(key + ".core_instructions",
          static_cast<double>(s.coreInstructions));
    d.add(key + ".mismatches", static_cast<double>(s.mismatches));
    d.add(key + ".exceptions", static_cast<double>(s.exceptions));
    d.add(key + ".mem_accesses", static_cast<double>(s.memAccesses));
    d.add(key + ".micro_ops", static_cast<double>(s.microOps));
    d.add(key + ".remote_compares",
          static_cast<double>(s.remoteCompares));
    d.add(key + ".qst_occupancy", s.avgQstOccupancy);
    d.add(key + ".max_in_flight", s.maxInFlightObserved);
    d.add(key + ".qst_backoffs", static_cast<double>(s.qstBackoffs));
    d.add(key + ".shed", static_cast<double>(s.sheddedQueries));
    d.add(key + ".batches", static_cast<double>(s.batches));
    d.add(key + ".batched_queries",
          static_cast<double>(s.batchedQueries));
    d.add(key + ".batch_backoffs", static_cast<double>(s.batchBackoffs));
    d.add(key + ".batch_header_hits",
          static_cast<double>(s.batchHeaderHits));
    d.add(key + ".batch_line_hits", static_cast<double>(s.batchLineHits));
    d.addHex(key + ".result_checksum", s.resultChecksum);
    for (const auto& [component, cycles] : s.breakdownCycles)
        d.add(key + ".breakdown." + component,
              static_cast<double>(cycles));
    d.add(key + ".breakdown.end_to_end",
          static_cast<double>(s.breakdownEndToEnd));
    d.add(key + ".breakdown.queries",
          static_cast<double>(s.breakdownQueries));
    digestLatency(d, key + ".sojourn", s.sojourn);
    digestLatency(d, key + ".queue_wait", s.queueWait);
    digestLatency(d, key + ".service", s.service);
    for (const auto& t : s.tenants) {
        const std::string tk = fmt("{}.tenant{}", key, t.tenant);
        d.add(tk + ".admitted", static_cast<double>(t.admitted));
        d.add(tk + ".sojourn_p99", t.sojournP99);
    }
}

void
digestBaseline(SimDigest& d, const std::string& key,
               const CoreRunResult& r)
{
    d.add(key + ".cycles", static_cast<double>(r.cycles));
    d.add(key + ".instructions", static_cast<double>(r.instructions));
    d.add(key + ".loads", static_cast<double>(r.loads));
    d.add(key + ".stores", static_cast<double>(r.stores));
    d.add(key + ".queries", static_cast<double>(r.queries));
    d.add(key + ".backend_stall", r.backendStallCycles);
    d.add(key + ".frontend_stall", r.frontendStallCycles);
}

// ------------------------------------------------------------------
// One repetition's results

struct BaselineCell
{
    std::string structure;
    CoreRunResult result;
    ChipActivity activity;
};

/** One QEI run call: a (structure, deployment, issue path) cell. */
struct QeiCell
{
    std::string label;
    std::string structure;
    std::string deployment;
    std::string path;
    QeiRunStats stats;
    ChipActivity activity;
    /** simEventsExecuted() delta across the call. */
    std::uint64_t events = 0;
    /** Baseline cycles on the same queries; closed-loop cells only. */
    Cycles baselineCycles = 0;
};

/** One offered rate of serving's open-loop grid. */
struct RatePoint
{
    std::string name;
    double meanGapCycles = 0.0;
    /** Arrival tick of the last query in the schedule. */
    Cycles lastArrival = 0;
    QeiRunStats stats;
    bool clipped = false;

    /** Offered rate in queries per 1000 simulated cycles. */
    double rate() const { return 1000.0 / meanGapCycles; }
    /** Cycles the run went on after the last arrival. */
    double
    backlogCycles() const
    {
        return stats.cycles > lastArrival
                   ? static_cast<double>(stats.cycles - lastArrival)
                   : 0.0;
    }
    bool
    meetsSlo() const
    {
        return !clipped && stats.sojourn.p99 <= kSloP99Cycles &&
               backlogCycles() <= kSloP99Cycles;
    }
};

/** What a timed call into the program counts toward. */
enum class CallKind
{
    Setup,    ///< World(seed), build, prepare
    Baseline, ///< runBaseline
    Qei,      ///< runQei, runBlockingMultiCore
    Other,    ///< warm-up, runWorkloadMatrix
};

/** One timed call; the key names the same call in every repetition. */
struct Call
{
    std::string key;
    CallKind kind;
    double seconds;
};

struct Rep
{
    double wallSeconds = 0.0;
    std::vector<Call> calls;
    /** Queries simulated by the baseline and QEI run calls. */
    std::uint64_t runQueries = 0;
    std::uint64_t qeiEvents = 0;
    double mappedPages = 0.0;
    /** paper-matrix only: sum of cell walls / (threads x matrix wall). */
    double parallelEfficiency = 0.0;
    std::vector<BaselineCell> baselines;
    std::vector<QeiCell> cells;
    std::vector<RatePoint> points;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> violations;
    SimDigest digest;

    void
    violation(std::string what)
    {
        violations.push_back(std::move(what));
    }
};

// ------------------------------------------------------------------
// Calls into the simulator

/** A structure built in its own World, with its prepared queries. */
struct Built
{
    std::string name;
    std::unique_ptr<Workload> workload;
    std::unique_ptr<World> world;
    Prepared prepared;
};

std::unique_ptr<Workload>
makeWorkload(const std::string& name)
{
    for (const WorkloadFactory& factory : makeWorkloadFactories()) {
        std::unique_ptr<Workload> w = factory();
        if (w->name() == name)
            return w;
    }
    simAssert(false, "no workload named {}", name);
    return nullptr;
}

class Runner
{
  public:
    Runner(const Options& options, SpanLog& spans, Rep& rep)
        : options_(options), spans_(spans), rep_(rep)
    {
    }

    /** World(seed) + build + prepare, counted into setup_s. */
    Built
    setUp(const std::string& name, std::size_t queries)
    {
        Built b;
        b.name = name;
        b.workload = makeWorkload(name);
        beginCell(name + "/setup");
        timed(CallKind::Setup, "workloads.world", [&] {
            b.world = std::make_unique<World>(options_.seed);
        });
        timed(CallKind::Setup, "workloads.build",
              [&] { b.workload->build(*b.world); });
        const double pages = static_cast<double>(
            b.world->vm.pageTable().entries().size());
        rep_.mappedPages += pages;
        rep_.digest.add(name + ".mapped_pages", pages);
        const std::size_t n =
            queries != 0 ? queries : b.workload->defaultQueries();
        timed(CallKind::Setup, "workloads.prepare", [&] {
            b.prepared = b.workload->prepare(*b.world, n);
        });
        return b;
    }

    void
    baseline(Built& b)
    {
        beginCell(b.name + "/baseline");
        warmIfTraced(b);
        BaselineCell cell;
        cell.structure = b.name;
        timed(CallKind::Baseline, "core.baseline", [&] {
            cell.result = runBaseline(*b.world, b.prepared);
        });
        cell.activity = ChipActivity::capture(b.world->hierarchy);
        rep_.runQueries += cell.result.queries;

        const std::uint64_t expected = b.prepared.traces.size();
        rep_.attempted += expected;
        if (cell.result.queries != expected) {
            rep_.failed += expected;
            rep_.violation(fmt("{}/baseline retired {} of {} queries",
                               b.name, cell.result.queries, expected));
        }
        digestBaseline(rep_.digest, b.name + "/baseline", cell.result);
        digestActivity(rep_.digest, b.name + "/baseline.activity",
                       cell.activity);
        rep_.baselines.push_back(std::move(cell));
    }

    /** One runQei call under @p config, on issue path @p path;
     *  @p variant tells apart cells that share a path. */
    QeiCell&
    qei(Built& b, const std::string& path, const DriverConfig& config,
        const std::string& variant = "")
    {
        const std::string label =
            b.name + "/" + config.topology.name() + "/" + path + variant;
        beginCell(label);
        warmIfTraced(b);
        QeiRunStats stats;
        timedQeiCall(path, [&] {
            stats = runQei(*b.world, b.prepared,
                           DriverConfig(config).withLabel(label));
        });
        return record(b, label, config.topology.name(), path,
                      std::move(stats));
    }

    /** QeiSystem::runBlockingMultiCore from @p cores issuing cores. */
    QeiCell&
    multiCore(Built& b, const Topology& topo, int cores)
    {
        const std::string label =
            b.name + "/" + topo.name() + "/" + kPaths[3];
        beginCell(label);
        // The multi-core loop is driven on a QeiSystem directly, so the
        // warm-up runQei does internally happens here, on every run.
        warm(b);
        QeiRunStats stats;
        timedQeiCall(kPaths[3], [&] {
            QeiSystem system(b.world->chip, b.world->events,
                             b.world->hierarchy, b.world->vm,
                             b.world->firmware, topo,
                             &b.world->traceSink);
            stats = system.runBlockingMultiCore(b.prepared.jobs, cores,
                                                b.prepared.profile);
        });
        return record(b, label, topo.name(), kPaths[3], std::move(stats));
    }

    /**
     * Output checks shared by every QEI cell of one structure and job
     * stream: the result checksum must agree across every path.
     */
    void
    checkChecksums(const Built& b, std::size_t firstCell)
    {
        const std::vector<QeiCell>& cells = rep_.cells;
        if (firstCell >= cells.size())
            return;
        const std::uint64_t want = cells[firstCell].stats.resultChecksum;
        for (std::size_t i = firstCell; i < cells.size(); ++i) {
            const QeiCell& c = cells[i];
            if (c.stats.resultChecksum == want)
                continue;
            rep_.failed += c.stats.queries;
            rep_.violation(fmt("{}: result checksum {} differs from "
                               "{} on {} (same {} job stream)",
                               c.label, hex16(c.stats.resultChecksum),
                               hex16(want),
                               cells[firstCell].label, b.name));
        }
    }

    /** Open the cell every following call belongs to. */
    void
    beginCell(const std::string& label)
    {
        cell_ = label;
        spans_.beginCell(label);
    }

    /** Time @p fn as span @p name of the current cell. */
    void
    timed(CallKind kind, const std::string& name,
          const std::function<void()>& fn)
    {
        const double seconds = spans_.time(name, fn);
        rep_.calls.push_back({cell_ + "/" + name, kind, seconds});
    }

  private:
    void
    warm(Built& b)
    {
        timed(CallKind::Other, "mem.warm", [&] {
            b.world->resetTiming();
            b.world->warmLlc();
        });
    }

    /** The traced run times the LLC warm-up before every cell on its
     *  own (runBaseline and runQei repeat it internally). */
    void
    warmIfTraced(Built& b)
    {
        if (spans_.recording())
            warm(b);
    }

    void
    timedQeiCall(const std::string& path, const std::function<void()>& fn)
    {
        const std::uint64_t before = simEventsExecuted();
        timed(CallKind::Qei, "qei.run." + path, fn);
        lastEvents_ = simEventsExecuted() - before;
        rep_.qeiEvents += lastEvents_;
    }

    QeiCell&
    record(Built& b, const std::string& label,
           const std::string& deployment, const std::string& path,
           QeiRunStats stats)
    {
        QeiCell cell;
        cell.label = label;
        cell.structure = b.name;
        cell.deployment = deployment;
        cell.path = path;
        cell.stats = std::move(stats);
        cell.activity = ChipActivity::capture(b.world->hierarchy);
        cell.events = lastEvents_;
        rep_.runQueries += cell.stats.queries;
        check(cell, b.prepared.jobs.size());
        digestQei(rep_.digest, label, cell.stats);
        digestActivity(rep_.digest, label + ".activity", cell.activity);
        rep_.digest.add(label + ".events",
                        static_cast<double>(cell.events));
        rep_.cells.push_back(std::move(cell));
        return rep_.cells.back();
    }

    /**
     * Per-cell output checks. Failed queries are mismatches,
     * exceptions, shed and never-retired ones; a broken invariant
     * (latency components, query count) fails the whole cell.
     */
    void
    check(const QeiCell& c, std::size_t jobs)
    {
        const QeiRunStats& s = c.stats;
        rep_.attempted += jobs;
        const std::uint64_t neverRetired =
            s.breakdownQueries < jobs ? jobs - s.breakdownQueries : 0;
        std::uint64_t failed = std::min<std::uint64_t>(
            jobs, s.mismatches + s.exceptions + s.sheddedQueries +
                      neverRetired);
        if (failed != 0) {
            rep_.violation(fmt("{}: {} mismatches, {} exceptions, {} "
                               "shed, {} never retired",
                               c.label, s.mismatches, s.exceptions,
                               s.sheddedQueries, neverRetired));
        }
        std::vector<std::string> broken;
        Cycles sum = 0;
        for (const auto& [component, cycles] : s.breakdownCycles)
            sum += cycles;
        const auto other = s.breakdownCycles.find("other");
        if (other == s.breakdownCycles.end() || other->second != 0)
            broken.push_back("the `other` latency component is not 0");
        if (sum != s.breakdownEndToEnd) {
            broken.push_back(fmt("latency components sum to {}, "
                                 "end-to-end is {}",
                                 sum, s.breakdownEndToEnd));
        }
        if (s.queries != jobs)
            broken.push_back(fmt("ran {} of {} queries", s.queries, jobs));
        for (const std::string& b : broken) {
            rep_.violation(c.label + ": " + b);
            failed = jobs;
        }
        rep_.failed += failed;
    }

    const Options& options_;
    SpanLog& spans_;
    Rep& rep_;
    std::string cell_;
    std::uint64_t lastEvents_ = 0;
};

// ------------------------------------------------------------------
// The three workloads

Cycles
baselineCyclesOf(const Rep& rep, const std::string& structure)
{
    for (const BaselineCell& b : rep.baselines) {
        if (b.structure == structure)
            return b.result.cycles;
    }
    return 0;
}

/** Mark every closed-loop cell of @p structure with its baseline. */
void
attachBaseline(Rep& rep, const std::string& structure, std::size_t from)
{
    const Cycles base = baselineCyclesOf(rep, structure);
    for (std::size_t i = from; i < rep.cells.size(); ++i)
        rep.cells[i].baselineCycles = base;
}

/**
 * paper-matrix: the five paper structures x (software baseline + the
 * five paper topologies), blocking, back to back, default query
 * counts. Each structure is first set up once and run serially, which
 * gives set-up time and the host cost of the run calls; then
 * runWorkloadMatrix rebuilds a World for each of its 30 cells across
 * kMatrixThreads threads and must reproduce the serial cells exactly.
 */
void
paperMatrix(const Options& options, SpanLog& spans, Rep& rep)
{
    Runner run(options, spans, rep);
    for (const std::string& name : kPaperStructures) {
        Built b = run.setUp(name, 0);
        run.baseline(b);
        const std::size_t first = rep.cells.size();
        for (const Topology& topo : Topology::allPaper())
            run.qei(b, kPaths[0], DriverConfig(topo));
        run.checkChecksums(b, first);
        attachBaseline(rep, name, first);
    }

    bench::MatrixOptions matrix;
    matrix.seed = options.seed;
    matrix.threads = options.threads;
    std::vector<bench::WorkloadRun> runs;
    run.beginCell("matrix");
    run.timed(CallKind::Other, "bench.matrix", [&] {
        runs = bench::runWorkloadMatrix(makeWorkloadFactories(), matrix);
    });
    const double wall = rep.calls.back().seconds;

    double cellSeconds = 0.0;
    for (const bench::WorkloadRun& r : runs) {
        for (const auto& [cell, ms] : r.cellWallMs) {
            (void)cell;
            cellSeconds += ms / 1000.0;
        }
        digestBaseline(rep.digest, "matrix/" + r.name + "/baseline",
                       r.baseline);
        rep.attempted += r.baseline.queries;
        if (r.baseline.cycles != baselineCyclesOf(rep, r.name)) {
            rep.failed += r.baseline.queries;
            rep.violation(fmt("matrix/{}/baseline: {} cycles, the serial "
                              "run took {}",
                              r.name, r.baseline.cycles,
                              baselineCyclesOf(rep, r.name)));
        }
        for (const auto& [topo, stats] : r.schemes) {
            const std::string label = r.name + "/" + topo + "/blocking";
            digestQei(rep.digest, "matrix/" + label, stats);
            const auto serial = std::find_if(
                rep.cells.begin(), rep.cells.end(),
                [&](const QeiCell& c) { return c.label == label; });
            if (serial == rep.cells.end() ||
                serial->stats.cycles != stats.cycles ||
                serial->stats.resultChecksum != stats.resultChecksum ||
                serial->stats.breakdownCycles != stats.breakdownCycles) {
                rep.failed += stats.queries;
                rep.violation("matrix/" + label +
                              " does not reproduce the serial run");
            }
            rep.attempted += stats.queries;
        }
    }
    rep.parallelEfficiency =
        wall > 0.0 ? cellSeconds / (options.threads * wall) : 0.0;
}

/**
 * sim-closed: dpdk FIB and rocksdb memtable — two structures that
 * build cheaply — with many queries each, through every closed-loop
 * issue path, so simulation rather than build sets the wall time.
 */
void
simClosed(const Options& options, SpanLog& spans, Rep& rep)
{
    Runner run(options, spans, rep);
    const std::vector<std::pair<std::string, std::size_t>> structures{
        {"dpdk", kSimClosedDpdkQueries},
        {"rocksdb", kSimClosedRocksdbQueries},
    };
    const Topology core = Topology::coreIntegrated();
    const Topology cha = Topology::chaTlb();
    for (const auto& [name, queries] : structures) {
        Built b = run.setUp(name, queries);
        run.baseline(b);
        const std::size_t first = rep.cells.size();
        run.qei(b, kPaths[0], DriverConfig(core));
        run.qei(b, kPaths[0], DriverConfig(cha));
        run.qei(b, kPaths[1],
                DriverConfig(core).withMode(QueryMode::NonBlocking));
        run.qei(b, kPaths[1],
                DriverConfig(cha).withMode(QueryMode::NonBlocking));
        BatchConfig batch;
        batch.size = kBatchSize;
        run.qei(b, kPaths[2], DriverConfig(core).withBatch(batch));
        run.multiCore(b, core, kMultiCoreIssuers);
        run.checkChecksums(b, first);
        attachBaseline(rep, name, first);
    }
}

/**
 * serving: dpdk FIB on core-integrated under seeded Poisson arrivals at
 * every rate of kRateGrid (runOpenLoop), then the `mid` stream split
 * round-robin over kServingTenants tenants with admission None, which
 * takes the Driver's serving loop. A closed-loop blocking cell and the
 * software baseline on the same queries come first, as the reference.
 */
void
serving(const Options& options, SpanLog& spans, Rep& rep)
{
    Runner run(options, spans, rep);
    Built b = run.setUp("dpdk", kServingQueries);
    run.baseline(b);
    const Topology core = Topology::coreIntegrated();
    const std::size_t first = rep.cells.size();
    run.qei(b, kPaths[0], DriverConfig(core));
    attachBaseline(rep, b.name, first);

    // The driver histograms clamp at their last bucket; a point whose
    // sojourn reaches it has no measurable p99.
    const DriverMetrics probe;
    const double ceiling = probe.sojourn().bucketWidth() *
                           static_cast<double>(
                               probe.sojourn().buckets().size());

    double midGap = 0.0;
    for (const GridPoint& g : kRateGrid) {
        RatePoint p;
        p.name = g.name;
        p.meanGapCycles = g.meanGapCycles;
        if (p.name == "mid")
            midGap = g.meanGapCycles;
        traffic::PoissonOpenLoop schedule(g.meanGapCycles,
                                          options.trafficSeed);
        p.lastArrival = schedule.schedule(kServingQueries).back().tick;
        QeiCell& cell = run.qei(
            b, kPaths[4],
            DriverConfig(core).withTraffic(
                std::make_shared<traffic::PoissonOpenLoop>(
                    g.meanGapCycles, options.trafficSeed)),
            fmt("@{}", g.meanGapCycles));
        p.stats = cell.stats;
        p.clipped = p.stats.sojourn.max >= ceiling;
        if (p.stats.sojourn.count < 1000) {
            rep.violation(fmt("rate gap {}: {} sojourn samples, a p99 "
                              "needs 1000",
                              g.meanGapCycles, p.stats.sojourn.count));
        }
        rep.digest.add(fmt("rate{}.clipped", g.meanGapCycles),
                       p.clipped ? 1.0 : 0.0);
        rep.points.push_back(std::move(p));
    }

    QeiCell& tenants = run.qei(
        b, kPaths[5],
        DriverConfig(core).withTraffic(
            std::make_shared<traffic::PoissonOpenLoop>(
                midGap, options.trafficSeed, kServingTenants)));
    if (tenants.stats.tenants.size() !=
        static_cast<std::size_t>(kServingTenants)) {
        rep.violation(fmt("{}: expected the serving loop's {} tenants, "
                          "got {}",
                          tenants.label, kServingTenants,
                          tenants.stats.tenants.size()));
    }
    run.checkChecksums(b, first);
}

void
runWorkload(const Options& options, SpanLog& spans, Rep& rep)
{
    spans.beginCell(options.workload);
    rep.wallSeconds = spans.time("perfbench.rep", [&] {
        if (options.workload == "paper-matrix")
            paperMatrix(options, spans, rep);
        else if (options.workload == "sim-closed")
            simClosed(options, spans, rep);
        else
            serving(options, spans, rep);
    });
}

// ------------------------------------------------------------------
// Metrics

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : v)
        logSum += std::log(x);
    return std::exp(logSum / static_cast<double>(v.size()));
}

bool
closedLoop(const QeiCell& c)
{
    return c.path != kPaths[4] && c.path != kPaths[5];
}

/** Ordered (name, value, unit) list printed and emitted as JSON. */
class Metrics
{
  public:
    void
    set(const std::string& name, double value, const std::string& unit)
    {
        entries_.push_back({name, value, unit});
    }

    void
    print() const
    {
        for (const Entry& e : entries_) {
            std::printf("  %-40s %16.6g %s\n", e.name.c_str(), e.value,
                        e.unit.c_str());
        }
    }

    Json
    toJson() const
    {
        Json out = Json::object();
        for (const Entry& e : entries_) {
            Json m = Json::object();
            m["value"] = e.value;
            m["unit"] = e.unit;
            out[e.name] = std::move(m);
        }
        return out;
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/**
 * Host seconds of one repetition with every call at its fastest: each
 * call's minimum over the repetitions, summed over the calls of
 * @p kinds. The host's speed drifts by tens of percent over phases of
 * seconds, so a sum of per-call minimums moves less than a median of
 * whole repetitions.
 */
double
fastestSeconds(const std::vector<Rep>& reps,
               std::initializer_list<CallKind> kinds)
{
    std::map<std::string, double> fastest;
    for (const Rep& r : reps) {
        for (const Call& c : r.calls) {
            if (std::find(kinds.begin(), kinds.end(), c.kind) ==
                kinds.end())
                continue;
            const auto it = fastest.find(c.key);
            if (it == fastest.end() || c.seconds < it->second)
                fastest[c.key] = c.seconds;
        }
    }
    double sum = 0.0;
    for (const auto& [key, seconds] : fastest) {
        (void)key;
        sum += seconds;
    }
    return sum;
}

/**
 * Host speed of the untraced repetitions: wall time, simulated queries
 * per host second and events per host second. Even at their fastest
 * calls these swing by 20-35% between runs on a shared host, so they
 * are reported with the per-layer metrics, which carry no bound.
 */
void
hostSpeed(const std::vector<Rep>& reps, Metrics& m)
{
    // The work between calls (checks, digest, teardown) at its fastest.
    double between = 0.0;
    for (const Rep& r : reps) {
        double inCalls = 0.0;
        for (const Call& c : r.calls)
            inCalls += c.seconds;
        const double rest = r.wallSeconds - inCalls;
        between = &r == &reps.front() ? rest : std::min(between, rest);
    }
    const Rep& r = reps.front();
    m.set("wall_s",
          fastestSeconds(reps, {CallKind::Setup, CallKind::Baseline,
                                CallKind::Qei, CallKind::Other}) +
              between,
          "s");
    m.set("sim_qps",
          ratio(static_cast<double>(r.runQueries),
                fastestSeconds(reps, {CallKind::Baseline, CallKind::Qei})),
          "queries/s");
    m.set("sim_events_per_s",
          ratio(static_cast<double>(r.qeiEvents),
                fastestSeconds(reps, {CallKind::Qei})),
          "events/s");
}

/** The end-to-end metrics of the untraced repetitions. */
Metrics
endToEnd(const std::vector<Rep>& reps, double peakRssMb)
{
    std::vector<double> setup;
    for (const Rep& r : reps) {
        double seconds = 0.0;
        for (const Call& c : r.calls) {
            if (c.kind == CallKind::Setup)
                seconds += c.seconds;
        }
        setup.push_back(seconds);
    }
    // Simulated numbers are identical in every repetition (checked).
    const Rep& r = reps.front();
    std::vector<double> cpq;
    std::vector<double> speedups;
    double qeiQueries = 0.0;
    for (const QeiCell& c : r.cells) {
        qeiQueries += static_cast<double>(c.stats.queries);
        if (!closedLoop(c))
            continue;
        cpq.push_back(c.stats.cyclesPerQuery());
        speedups.push_back(
            static_cast<double>(c.baselineCycles) /
            static_cast<double>(c.stats.cycles));
    }

    Metrics m;
    m.set("setup_s", median(setup), "s");
    m.set("peak_rss_mb", peakRssMb, "MiB");
    m.set("sim_events_per_query",
          ratio(static_cast<double>(r.qeiEvents), qeiQueries), "events");
    m.set("sim_cycles_per_query", geomean(cpq), "cycles");
    m.set("speedup_geomean", geomean(speedups), "ratio");
    return m;
}

const RatePoint*
findPoint(const Rep& r, const std::string& name)
{
    for (const RatePoint& p : r.points) {
        if (p.name == name)
            return &p;
    }
    return nullptr;
}

/**
 * The per-layer metrics: host speed from the untraced repetitions, host
 * self times from the traced ones (medians), simulated counts from the
 * first traced repetition, and the tracing overhead.
 */
Metrics
perLayer(const std::vector<Rep>& untraced, const std::vector<Rep>& traced,
         const std::vector<std::map<std::string, double>>& selfTimes)
{
    auto hostMedian = [&](const std::string& span) {
        std::vector<double> v;
        for (const auto& self : selfTimes) {
            const auto it = self.find(span);
            v.push_back(it == self.end() ? 0.0 : it->second);
        }
        return median(v);
    };

    const Rep& r = traced.front();
    std::map<std::string, double> comp;
    double completions = 0.0;
    double queries = 0.0;
    double microOps = 0.0;
    double backoffs = 0.0;
    double remoteCompares = 0.0;
    double headerHits = 0.0;
    double lineHits = 0.0;
    double batched = 0.0;
    double occupancy = 0.0;
    ChipActivity act;
    std::map<std::string, double> pathEvents;
    std::map<std::string, double> pathQueries;
    for (const QeiCell& c : r.cells) {
        const QeiRunStats& s = c.stats;
        for (const auto& [name, cycles] : s.breakdownCycles)
            comp[name] += static_cast<double>(cycles);
        completions += static_cast<double>(s.breakdownQueries);
        queries += static_cast<double>(s.queries);
        microOps += static_cast<double>(s.microOps);
        backoffs += static_cast<double>(s.qstBackoffs);
        remoteCompares += static_cast<double>(s.remoteCompares);
        headerHits += static_cast<double>(s.batchHeaderHits);
        lineHits += static_cast<double>(s.batchLineHits);
        batched += static_cast<double>(s.batchedQueries);
        occupancy += s.avgQstOccupancy;
        act.l1Accesses += c.activity.l1Accesses;
        act.l2Accesses += c.activity.l2Accesses;
        act.llcAccesses += c.activity.llcAccesses;
        act.dramAccesses += c.activity.dramAccesses;
        act.nocBytes += c.activity.nocBytes;
        pathEvents[c.path] += static_cast<double>(c.events);
        pathQueries[c.path] += static_cast<double>(s.queries);
    }
    auto cpq = [&](const char* component) {
        return ratio(comp[component], completions);
    };
    double baseCycles = 0.0;
    double baseQueries = 0.0;
    double backendStall = 0.0;
    for (const BaselineCell& b : r.baselines) {
        baseCycles += static_cast<double>(b.result.cycles);
        baseQueries += static_cast<double>(b.result.queries);
        backendStall += b.result.backendStallCycles;
    }

    std::vector<double> untracedWall;
    for (const Rep& u : untraced)
        untracedWall.push_back(u.wallSeconds);
    std::vector<double> tracedWall;
    for (const Rep& t : traced)
        tracedWall.push_back(t.wallSeconds);

    Metrics m;
    hostSpeed(untraced, m);
    m.set("workloads.world_s", hostMedian("workloads.world"), "s");
    m.set("workloads.build_s", hostMedian("workloads.build"), "s");
    m.set("workloads.prepare_s", hostMedian("workloads.prepare"), "s");
    m.set("vm.mapped_pages", r.mappedPages, "pages");
    m.set("vm.translation_cpq", cpq("translation"), "cycles");
    m.set("mem.warm_s", hostMedian("mem.warm"), "s");
    m.set("mem.memory_cpq", cpq("memory"), "cycles");
    m.set("mem.l1_per_query",
          ratio(static_cast<double>(act.l1Accesses), queries), "count");
    m.set("mem.l2_per_query",
          ratio(static_cast<double>(act.l2Accesses), queries), "count");
    m.set("mem.llc_per_query",
          ratio(static_cast<double>(act.llcAccesses), queries), "count");
    m.set("mem.dram_per_query",
          ratio(static_cast<double>(act.dramAccesses), queries), "count");
    m.set("noc.noc_cpq", cpq("noc"), "cycles");
    m.set("noc.bytes_per_query",
          ratio(static_cast<double>(act.nocBytes), queries), "bytes");
    m.set("noc.remote_compares_per_query", ratio(remoteCompares, queries),
          "count");
    for (const std::string& p : kPaths)
        m.set("sim.events." + p, pathEvents[p], "events");
    for (const std::string& p : kPaths) {
        m.set("sim.events_per_query." + p,
              ratio(pathEvents[p], pathQueries[p]), "events");
    }
    m.set("core.baseline_s", hostMedian("core.baseline"), "s");
    m.set("core.baseline_cpq", ratio(baseCycles, baseQueries), "cycles");
    m.set("core.backend_stall_share", ratio(backendStall, baseCycles),
          "fraction");
    for (const std::string& p : kPaths)
        m.set("qei.run_s." + p, hostMedian("qei.run." + p), "s");
    for (const char* c : {"submit", "queue_wait", "cee_wait", "cee_exec",
                          "dpu", "delivery", "response"})
        m.set(std::string("qei.") + c + "_cpq", cpq(c), "cycles");
    m.set("qei.micro_ops_per_query", ratio(microOps, queries), "count");
    m.set("qei.qst_occupancy_mean",
          ratio(occupancy, static_cast<double>(r.cells.size())), "slots");
    m.set("qei.qst_backoffs_per_query", ratio(backoffs, queries), "count");
    m.set("qei.batch_header_hits_per_query", ratio(headerHits, batched),
          "count");
    m.set("qei.batch_line_hits_per_query", ratio(lineHits, batched),
          "count");
    for (const std::string& rate : kRates) {
        const RatePoint* p = findPoint(r, rate);
        m.set("traffic.queue_wait_p99_cycles." + rate,
              p ? (p->clipped ? p->stats.queueWait.max
                              : p->stats.queueWait.p99)
                : 0.0,
              "cycles");
        m.set("traffic.service_p99_cycles." + rate,
              p ? p->stats.service.p99 : 0.0, "cycles");
        m.set("traffic.backlog_cycles." + rate,
              p ? p->backlogCycles() : 0.0, "cycles");
    }
    // A clipped point has no measurable percentile; its sojourn max
    // (an upper bound on the p99) stands in, and README says so.
    auto sojourn = [&](const std::string& rate, bool p99) {
        const RatePoint* p = findPoint(r, rate);
        if (p == nullptr)
            return 0.0;
        if (p->clipped)
            return p->stats.sojourn.max;
        return p99 ? p->stats.sojourn.p99 : p->stats.sojourn.p50;
    };
    m.set("sojourn_p50_cycles.low", sojourn("low", false), "cycles");
    for (const std::string& rate : kRates) {
        m.set("sojourn_p99_cycles." + rate, sojourn(rate, true),
              "cycles");
    }
    double maxRate = 0.0;
    double clipped = 0.0;
    for (const RatePoint& p : r.points) {
        if (p.meetsSlo())
            maxRate = std::max(maxRate, p.rate());
        clipped += p.clipped ? 1.0 : 0.0;
    }
    m.set("max_rate_under_slo", maxRate, "queries/kcycle");
    m.set("traffic.clipped_points", clipped, "count");
    m.set("bench.parallel_efficiency", r.parallelEfficiency, "fraction");
    m.set("failed_share",
          ratio(static_cast<double>(r.failed),
                static_cast<double>(r.attempted)),
          "fraction");
    m.set("trace.overhead_share",
          ratio(median(tracedWall), median(untracedWall)) - 1.0,
          "fraction");
    return m;
}

// ------------------------------------------------------------------
// Report

void
printCells(const Rep& r)
{
    std::printf("%-44s %12s %10s %9s %18s\n", "cell", "cycles/query",
                "speedup", "events", "result checksum");
    for (const BaselineCell& b : r.baselines) {
        std::printf("%-44s %12.2f %10s %9s %18s\n",
                    (b.structure + "/baseline").c_str(),
                    b.result.cyclesPerQuery(), "1.00x", "0", "-");
    }
    for (const QeiCell& c : r.cells) {
        const std::string speedup =
            closedLoop(c)
                ? fmt("{:.2f}x", static_cast<double>(c.baselineCycles) /
                                     static_cast<double>(c.stats.cycles))
                : std::string("open");
        std::printf("%-44s %12.2f %10s %9llu %18s\n", c.label.c_str(),
                    c.stats.cyclesPerQuery(), speedup.c_str(),
                    static_cast<unsigned long long>(c.events),
                    hex16(c.stats.resultChecksum).c_str());
    }
}

/** Per-structure speedups beside the paper's own simulated Fig. 7
 *  band; the model is not validated against hardware. */
void
printPaperBand(const Rep& r)
{
    std::printf("\nspeedup over the software walk, blocking, per "
                "structure (paper Fig. 7, simulated: ~8x average, "
                "6.5-11.2x):\n");
    for (const std::string& s : kPaperStructures) {
        std::printf("  %-8s", s.c_str());
        for (const QeiCell& c : r.cells) {
            if (c.structure != s)
                continue;
            std::printf(" %s %.2fx", c.deployment.c_str(),
                        static_cast<double>(c.baselineCycles) /
                            static_cast<double>(c.stats.cycles));
        }
        std::printf("\n");
    }
}

void
printRates(const Rep& r)
{
    std::printf("\nopen-loop grid (dpdk, core-integrated; p99 limit %.0f "
                "cycles):\n",
                kSloP99Cycles);
    std::printf("%-6s %10s %12s %8s %12s %12s %12s %12s %s\n", "rate",
                "gap", "q/kcycle", "samples", "sojourn p50",
                "sojourn p99", "sojourn max", "backlog", "verdict");
    for (const RatePoint& p : r.points) {
        const std::string p99 =
            p.clipped ? std::string("CLIPPED")
                      : fmt("{:.1f}", p.stats.sojourn.p99);
        std::printf("%-6s %10.1f %12.3f %8llu %12.1f %12s %12.0f %12.0f "
                    "%s\n",
                    p.name.empty() ? "-" : p.name.c_str(),
                    p.meanGapCycles, p.rate(),
                    static_cast<unsigned long long>(p.stats.sojourn.count),
                    p.stats.sojourn.p50, p99.c_str(), p.stats.sojourn.max,
                    p.backlogCycles(),
                    p.clipped      ? "clipped: misses the limit"
                    : p.meetsSlo() ? "meets"
                                   : "misses");
    }
}

bool
writeSpans(const std::string& path, const SpanLog& spans)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return false;
    }
    const std::string text = spans.toJson().dump() + "\n";
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                    text.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options options = parseArgs(argc, argv);
    // The fault mix and the offload planner have process-wide
    // environment defaults; the benchmark measures the plain machine.
    unsetenv("QEI_FAULTS");
    unsetenv("QEI_PLANNER");

    const Clock::time_point start = Clock::now();
    SpanLog spans(start);
    std::vector<Rep> untraced;
    std::vector<Rep> traced;
    std::vector<std::map<std::string, double>> selfTimes;

    // Repeat until --seconds are spent: a traced run alternates
    // untraced and traced repetitions so the overhead compares like
    // with like.
    int reps = 0;
    for (;;) {
        const bool record = options.trace && reps % 2 == 1;
        spans.setRecording(record);
        spans.setRep(reps);
        Rep rep;
        runWorkload(options, spans, rep);
        if (record) {
            selfTimes.push_back(spans.selfSeconds(reps));
            traced.push_back(std::move(rep));
        } else {
            untraced.push_back(std::move(rep));
        }
        ++reps;
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
        const int minReps = options.trace ? 2 * (kMinReps - 1) : kMinReps;
        if (reps >= minReps &&
            elapsed * (reps + 1) / reps > options.seconds)
            break;
    }

    // Output checks: every repetition must pass, and must read the
    // same simulated numbers as the first.
    std::vector<const Rep*> all;
    for (const Rep& r : untraced)
        all.push_back(&r);
    for (const Rep& r : traced)
        all.push_back(&r);
    const Rep& first = *all.front();
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    for (const Rep* r : all) {
        attempted += r->attempted;
        failed += r->failed;
        for (const std::string& v : r->violations) {
            std::printf("CHECK FAILED: %s\n", v.c_str());
            correct = false;
        }
        if (r->digest.hash() != first.digest.hash()) {
            std::printf("CHECK FAILED: a repetition read different "
                        "simulated numbers (digest %s vs %s)\n",
                        hex16(r->digest.hash()).c_str(),
                        hex16(first.digest.hash()).c_str());
            correct = false;
        }
    }
    correct = correct && failed == 0;

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;

    std::printf("=== qei_perfbench %s seed %llu traffic-seed %llu, %d "
                "repetitions (%zu traced) ===\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                static_cast<unsigned long long>(options.trafficSeed), reps,
                traced.size());
    std::printf("repetition walls (s):");
    for (const Rep* r : all)
        std::printf(" %.3f", r->wallSeconds);
    std::printf("\n");
    printCells(first);
    if (options.workload == "paper-matrix")
        printPaperBand(first);
    if (options.workload == "serving")
        printRates(first);
    std::printf("\nsimulated-statistics digest: %s over %zu values\n",
                hex16(first.digest.hash()).c_str(), first.digest.count());
    std::printf("output checks: %s (%llu of %llu queries failed)\n",
                correct ? "pass" : "FAIL",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));

    const Metrics metrics = options.trace
                                ? perLayer(untraced, traced, selfTimes)
                                : endToEnd(untraced, peakRssMb);
    std::printf("\n%s metrics:\n",
                options.trace ? "per-layer" : "end-to-end");
    metrics.print();
    if (!options.trace) {
        Metrics speed;
        hostSpeed(untraced, speed);
        std::printf("host speed (per-layer metrics, unbounded):\n");
        speed.print();
    }

    if (!options.spansPath.empty() && options.trace &&
        !writeSpans(options.spansPath, spans))
        return 1;

    Json result = Json::object();
    result["correct"] = correct;
    result["attempted"] = attempted;
    result["failed"] = failed;
    result["metrics"] = metrics.toJson();
    std::printf("%s\n", result.dump().c_str());
    return 0;
}
