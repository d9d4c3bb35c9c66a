/**
 * @file
 * qei::metrics — serving telemetry: periodic time-series sampling and
 * sliding-window tail-latency monitoring (the observability tentpole).
 *
 * End-of-run aggregates (one p99 per run) cannot show *when* the QST
 * saturated or how QUERY_NB backoff rippled into sojourn time. The
 * MetricsSampler closes that gap: a SimObject that wakes on a daemon
 * event every `interval` simulated cycles and samples
 *  - any dotted-path StatsRegistry entry (probe()), as a gauge or as
 *    a counter-with-rate (per-interval delta);
 *  - arbitrary callback gauges/rates (addGauge/addRate) for values
 *    with no registry entry, like live QST occupancy or event-queue
 *    depth;
 *  - sliding-window tail percentiles (TailMonitor) over per-query
 *    sample streams pushed from the hot path (onSojourn), with
 *    threshold-crossing SLO events.
 *
 * Design rules, mirroring qei::trace:
 *  - daemon-scheduled: sampling rides EventQueue::scheduleDaemon, so
 *    it never keeps a run alive, never drags the simulated clock, and
 *    never perturbs query timing — artifacts are byte-identical with
 *    sampling off;
 *  - per-World: a sampler is owned by the cell that runs it, so
 *    parallel matrix cells never share one (Recorder, the only
 *    process-wide piece, is mutex-guarded and touched once per run);
 *  - off by default: a run arms a sampler only when a harness passes
 *    --metrics, so every push site costs one pointer test otherwise.
 */

#ifndef QEI_METRICS_METRICS_HH
#define QEI_METRICS_METRICS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/sim_object.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"
#include "trace/trace.hh"

namespace qei::metrics {

class MetricsSampler;

/**
 * The hot-path guard: `if (metrics::active(s)) s->onSojourn(...)`
 * skips the argument computation too while no sampler is armed.
 */
inline bool active(const MetricsSampler* sampler);

/**
 * Fixed-capacity sliding window of samples with exact percentiles
 * over the retained window.
 *
 * push() is a single ring store (the per-query hot path); the
 * percentile math runs only when the sampler ticks. percentile() is
 * the nearest-rank estimator over the *retained* window: the value at
 * index floor(fraction * (count - 1)) of the sorted window. Tests
 * compare it against offline sorts of the same trailing samples
 * (exact by construction) and against full-stream percentiles (a
 * windowed estimate — docs/observability.md documents the tolerance).
 */
class SlidingWindow
{
  public:
    explicit SlidingWindow(std::size_t capacity = 256)
        : ring_(capacity > 0 ? capacity : 1, 0.0)
    {
    }

    void
    push(double v)
    {
        ring_[head_] = v;
        if (++head_ == ring_.size())
            head_ = 0;
        ++pushed_;
    }

    std::size_t capacity() const { return ring_.size(); }

    /** Samples currently retained (<= capacity). */
    std::size_t
    count() const
    {
        return pushed_ < ring_.size()
                   ? static_cast<std::size_t>(pushed_)
                   : ring_.size();
    }

    /** Total samples ever pushed (monotonic across wraps). */
    std::uint64_t pushed() const { return pushed_; }

    /** Empty the window (region-of-interest reset). */
    void
    reset()
    {
        head_ = 0;
        pushed_ = 0;
    }

    /**
     * Nearest-rank percentile over the retained window; 0.0 while
     * empty. @p fraction in [0, 1].
     */
    double percentile(double fraction) const;

  private:
    std::vector<double> ring_;
    std::size_t head_ = 0;
    std::uint64_t pushed_ = 0;
    /** Scratch for percentile()'s partial sort, reused across ticks. */
    mutable std::vector<double> scratch_;
};

/** How a sampled series is interpreted. */
enum class SeriesKind : std::uint8_t {
    Gauge, ///< instantaneous value at the sample tick
    Rate,  ///< per-interval delta of a monotonic counter
};

/** Stable lower-case name of @p kind ("gauge" / "rate"). */
const char* toString(SeriesKind kind);

/** One sample of one series. */
struct Point
{
    Cycles tick = 0;
    double value = 0.0;
};

/** One named, typed time series. */
struct TimeSeries
{
    std::string name;
    SeriesKind kind = SeriesKind::Gauge;
    std::vector<Point> points;
};

/** One SLO threshold crossing observed by a TailMonitor. */
struct SloEvent
{
    Cycles tick = 0;
    std::string monitor;
    double value = 0.0;     ///< windowed p99 at the crossing
    double threshold = 0.0;
    bool rising = true;     ///< true: crossed above; false: recovered
};

/**
 * Sliding-window tail monitor over one per-query sample stream:
 * maintains windowed p50/p99/p999 and, when a positive SLO threshold
 * is configured, detects windowed-p99 threshold crossings.
 */
class TailMonitor
{
  public:
    TailMonitor(std::string name, std::size_t window,
                double slo_p99 = 0.0)
        : name_(std::move(name)), window_(window), sloP99_(slo_p99)
    {
    }

    /** Hot path: one ring store. Guard call sites with active(). */
    void push(double v) { window_.push(v); }

    const std::string& name() const { return name_; }
    SlidingWindow& window() { return window_; }
    const SlidingWindow& window() const { return window_; }
    double sloP99() const { return sloP99_; }

    /** True while the windowed p99 sits above the SLO threshold. */
    bool breaching() const { return breaching_; }

    /**
     * Evaluate the window at @p tick; appends the p50/p99/p999 points
     * to @p series (three entries, owned by the sampler) and any SLO
     * crossing to @p slo_events.
     */
    void tick(Cycles tick, std::vector<TimeSeries*> series,
              std::vector<SloEvent>& slo_events);

    void
    reset()
    {
        window_.reset();
        breaching_ = false;
    }

  private:
    std::string name_;
    SlidingWindow window_;
    double sloP99_;
    bool breaching_ = false;
};

/** Everything a sampler collected over one run region. */
struct RunSeries
{
    Cycles intervalCycles = 0;
    std::uint64_t samples = 0;
    std::vector<TimeSeries> series;
    std::vector<SloEvent> sloEvents;
    double sloThresholdP99 = 0.0;

    /**
     * The artifact block: {"interval_cycles", "samples", "series":
     * {name: {"kind", "points": [[tick, value], ...]}}, "slo"}.
     * Series are keyed by their dotted names, so BENCH_*.json
     * consumers address them like registry paths
     * ("system.metrics.qst_occupancy").
     */
    Json toJson() const;

    /** Append `cell,series,kind,tick,value` CSV rows for this run. */
    void appendCsv(std::string& out, const std::string& cell) const;
};

/** Sampler knobs (see runtimeConfig() for the env overrides). */
struct SamplerConfig
{
    /** Simulated cycles between samples. */
    Cycles intervalCycles = 2048;
    /** TailMonitor sliding-window capacity (samples). */
    std::size_t window = 256;
    /** Sojourn-p99 SLO threshold in cycles; 0 disables SLO events. */
    double sloSojournP99 = 0.0;
};

/**
 * The sampler itself: adopted into the system tree as
 * "system.metrics", armed per run region alongside the fault daemons,
 * and drained into a RunSeries after the run.
 */
class MetricsSampler : public SimObject
{
  public:
    explicit MetricsSampler(SamplerConfig config = {});

    void regStats(StatsRegistry& registry) override;

    // -- setup (before the run) --

    /**
     * Take ownership of a registry snapshot to probe; the registry
     * borrows pointers into live components, so the sampler must be
     * destroyed before the system it observes (declare it after the
     * QeiSystem in the owning scope).
     */
    void observeRegistry(StatsRegistry registry);

    /**
     * Sample the registry entry at @p path every tick. Rate series
     * record per-interval deltas of the (monotonic) scalar view.
     * No-op when the path is absent — harnesses can probe
     * topology-dependent paths unconditionally.
     */
    void probe(const std::string& path, SeriesKind kind);

    /** Sample @p fn every tick as an instantaneous gauge. */
    void addGauge(std::string name, std::function<double()> fn);

    /** Sample @p fn (monotonic) every tick as a per-interval rate. */
    void addRate(std::string name, std::function<double()> fn);

    /**
     * Create (or return) the tail monitor named @p name. The first
     * monitor created is the onSojourn() target.
     */
    TailMonitor& addTailMonitor(const std::string& name,
                                double slo_p99 = 0.0);

    /**
     * Mirror every sample into @p sink as Category::Metric counter
     * events (Perfetto "ph":"C" counter tracks), when the sink is
     * recording.
     */
    void setTraceSink(trace::TraceSink* sink);

    // -- hot path --

    /** Push one completed query's sojourn (cycles) into the first
     *  tail monitor. Guard call sites with metrics::active(). */
    void
    onSojourn(double cycles)
    {
        if (sojourn_ != nullptr)
            sojourn_->push(cycles);
    }

    // -- run control --

    /**
     * Start periodic sampling on @p events. Daemon contract: the tick
     * re-arms only while pendingWork() is non-zero, so sampling never
     * keeps a run alive and never drags the simulated clock. No-op
     * when already armed (run loops may arm repeatedly, like the
     * watchdog).
     */
    void arm(EventQueue& events);

    bool armed() const { return armed_; }

    /** Samples taken since the last drain(). */
    std::uint64_t samples() const { return samples_.value(); }

    /**
     * Move the collected series out and reset for the next run region
     * (points cleared, tail windows emptied, rate baselines dropped).
     */
    RunSeries drain();

  private:
    struct Probe
    {
        std::string path;
        SeriesKind kind = SeriesKind::Gauge;
        std::size_t seriesIdx = 0;
        double lastRaw = 0.0;
        bool primed = false;
    };

    struct Callback
    {
        std::function<double()> fn;
        SeriesKind kind = SeriesKind::Gauge;
        std::size_t seriesIdx = 0;
        double lastRaw = 0.0;
        bool primed = false;
    };

    std::size_t newSeries(std::string name, SeriesKind kind);
    void tick(EventQueue& events);
    void recordPoint(std::size_t series_idx, Cycles tick, double value);

    SamplerConfig config_;
    StatsRegistry registry_;
    bool haveRegistry_ = false;
    std::vector<TimeSeries> series_;
    std::vector<Probe> probes_;
    std::vector<Callback> callbacks_;
    std::vector<std::unique_ptr<TailMonitor>> monitors_;
    /** Per-monitor base index of its three percentile series. */
    std::vector<std::size_t> monitorSeries_;
    TailMonitor* sojourn_ = nullptr;
    std::vector<SloEvent> sloEvents_;
    bool armed_ = false;
    trace::TraceSink* trace_ = nullptr;
    std::uint16_t traceComp_ = 0;
    std::vector<std::uint32_t> traceNames_;
    Counter samples_;
    Counter sloCrossings_;
    /** samples_ value at the last drain(), for per-run deltas. */
    std::uint64_t drainedSamples_ = 0;
};

inline bool
active(const MetricsSampler* sampler)
{
    return sampler != nullptr;
}

/**
 * Process-wide runtime switches, the QEI_FAULTS pattern: set once on
 * the main thread by parseBenchArgs (from `--metrics` and the
 * QEI_METRICS_INTERVAL / QEI_METRICS_WINDOW / QEI_METRICS_SLO
 * environment knobs) before any matrix fan-out; worker threads only
 * read it. Defaults to disabled, so runs without --metrics arm no
 * sampler at all.
 */
struct RuntimeConfig
{
    bool enabled = false;
    SamplerConfig sampler;
};

RuntimeConfig& runtimeConfig();

/** Re-read the environment knobs into runtimeConfig().sampler. */
void loadRuntimeConfigFromEnv();

/**
 * Thread-safe process-wide collector of per-run series for the
 * harness CSV: every runQei() with sampling enabled adds its drained
 * RunSeries under the run's cell label; BenchReport::finish() renders
 * csv() to the `--metrics` path and clears. Rows are sorted by
 * (cell, series, tick), so the file is deterministic at any --threads
 * as long as cell labels are unique.
 */
class Recorder
{
  public:
    static Recorder& global();

    void add(std::string cell, RunSeries series);

    /** `cell,series,kind,tick,value` rows under a header line. */
    std::string csv() const;

    std::size_t size() const;
    void clear();

  private:
    mutable std::mutex mutex_;
    std::vector<std::pair<std::string, RunSeries>> runs_;
};

} // namespace qei::metrics

#endif // QEI_METRICS_METRICS_HH
