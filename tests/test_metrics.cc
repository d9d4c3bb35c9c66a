/**
 * The qei::metrics subsystem: sliding-window percentile estimator
 * (exact over the retained window; windowed-vs-full-stream tolerance
 * on seeded Poisson and bursty arrival streams), window wrap and
 * region-of-interest reset, SLO threshold crossings, the Recorder CSV,
 * and the end-to-end guarantee that sampling rides daemon events only:
 * closed-loop run results are bit-identical with sampling on and off.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_util.hh"
#include "common/random.hh"
#include "metrics/metrics.hh"

using namespace qei;

namespace {

/** Offline nearest-rank percentile over all of @p values. */
double
exactPercentile(std::vector<double> values, double fraction)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        fraction * static_cast<double>(values.size() - 1));
    return values[rank];
}

/** Exponential inter-arrival-style samples (Poisson process gaps). */
std::vector<double>
poissonGaps(std::size_t n, double mean, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Clamp away u == 0 so log() stays finite.
        const double u = std::max(rng.uniform(), 1e-12);
        out.push_back(-std::log(u) * mean);
    }
    return out;
}

/**
 * Bursty stream: baseline service latency with seeded bursts of 10x
 * samples — the shape an overloaded QST produces.
 */
std::vector<double>
burstySamples(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double base = 100.0 + rng.uniform() * 20.0;
        out.push_back(rng.chance(0.05) ? base * 10.0 : base);
    }
    return out;
}

} // namespace

TEST(Metrics, WindowPercentileIsExactOverRetainedWindow)
{
    // After wrapping, the estimator must agree exactly with an
    // offline sort of the trailing `capacity` samples.
    const std::size_t capacity = 64;
    metrics::SlidingWindow window(capacity);
    const std::vector<double> stream = burstySamples(1000, 7);
    for (double v : stream)
        window.push(v);
    EXPECT_EQ(window.count(), capacity);
    EXPECT_EQ(window.pushed(), stream.size());

    const std::vector<double> tail(stream.end() - capacity,
                                   stream.end());
    for (double f : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        EXPECT_DOUBLE_EQ(window.percentile(f),
                         exactPercentile(tail, f))
            << "fraction " << f;
    }
}

TEST(Metrics, WindowedTailTracksFullStreamWithinTolerance)
{
    // A windowed p99/p999 over a *stationary* stream is an estimate
    // of the full-stream percentile. docs/observability.md documents
    // the tolerance: p50/p99 within 15% relative for a 512-sample
    // window; p999 is window-limited (a 512-sample window holds fewer
    // than one 1-in-1000 event on average) and only bounded to 35%.
    // Seeded, so this is deterministic.
    struct Case
    {
        const char* name;
        std::vector<double> stream;
    };
    const std::vector<Case> cases{
        {"poisson", poissonGaps(8192, 500.0, 42)},
        {"bursty", burstySamples(8192, 1234)},
    };
    for (const Case& c : cases) {
        metrics::SlidingWindow window(512);
        for (double v : c.stream)
            window.push(v);
        for (double f : {0.5, 0.99}) {
            const double exact = exactPercentile(c.stream, f);
            const double windowed = window.percentile(f);
            ASSERT_GT(exact, 0.0) << c.name;
            EXPECT_NEAR(windowed / exact, 1.0, 0.15)
                << c.name << " p" << f * 100.0;
        }
        EXPECT_NEAR(window.percentile(0.999) /
                        exactPercentile(c.stream, 0.999),
                    1.0, 0.35)
            << c.name << " p999";
    }
}

TEST(Metrics, WindowWrapAndResetEdgeCases)
{
    metrics::SlidingWindow window(4);
    EXPECT_EQ(window.count(), 0u);
    EXPECT_DOUBLE_EQ(window.percentile(0.99), 0.0); // empty: defined 0

    // Partial fill: percentiles over only the pushed samples.
    window.push(30.0);
    window.push(10.0);
    EXPECT_EQ(window.count(), 2u);
    EXPECT_DOUBLE_EQ(window.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(window.percentile(1.0), 30.0);

    // Wrap: only the newest `capacity` samples survive.
    for (double v : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0})
        window.push(v);
    EXPECT_EQ(window.count(), 4u);
    EXPECT_EQ(window.pushed(), 8u);
    EXPECT_DOUBLE_EQ(window.percentile(0.0), 3.0);
    EXPECT_DOUBLE_EQ(window.percentile(1.0), 6.0);

    // Region-of-interest reset drops everything.
    window.reset();
    EXPECT_EQ(window.count(), 0u);
    EXPECT_EQ(window.pushed(), 0u);
    EXPECT_DOUBLE_EQ(window.percentile(0.99), 0.0);
    window.push(7.0);
    EXPECT_DOUBLE_EQ(window.percentile(0.5), 7.0);
}

TEST(Metrics, TailMonitorDetectsSloCrossings)
{
    metrics::TailMonitor monitor("sojourn", 16, /*slo_p99=*/1000.0);
    metrics::TimeSeries p50, p99, p999;
    std::vector<metrics::TimeSeries*> series{&p50, &p99, &p999};
    std::vector<metrics::SloEvent> events;

    // Empty window: tick records nothing.
    monitor.tick(100, series, events);
    EXPECT_TRUE(p99.points.empty());
    EXPECT_TRUE(events.empty());

    // Healthy latencies: below the SLO, no crossing.
    for (int i = 0; i < 16; ++i)
        monitor.push(200.0);
    monitor.tick(200, series, events);
    ASSERT_EQ(p99.points.size(), 1u);
    EXPECT_FALSE(monitor.breaching());
    EXPECT_TRUE(events.empty());

    // Tail blows past the SLO: one rising crossing, not re-reported
    // while the breach persists.
    for (int i = 0; i < 16; ++i)
        monitor.push(5000.0);
    monitor.tick(300, series, events);
    monitor.tick(400, series, events);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_TRUE(events[0].rising);
    EXPECT_EQ(events[0].tick, 300u);
    EXPECT_EQ(events[0].monitor, "sojourn");
    EXPECT_GT(events[0].value, events[0].threshold);
    EXPECT_TRUE(monitor.breaching());

    // Recovery: one falling crossing once the window drains.
    for (int i = 0; i < 16; ++i)
        monitor.push(150.0);
    monitor.tick(500, series, events);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_FALSE(events[1].rising);
    EXPECT_FALSE(monitor.breaching());

    // The three percentile series advanced in lockstep.
    EXPECT_EQ(p50.points.size(), p99.points.size());
    EXPECT_EQ(p999.points.size(), p99.points.size());
}

TEST(Metrics, RunSeriesJsonAndCsvShape)
{
    metrics::RunSeries run;
    run.intervalCycles = 1024;
    run.samples = 2;
    metrics::TimeSeries s;
    s.name = "system.metrics.qst_occupancy";
    s.kind = metrics::SeriesKind::Gauge;
    s.points.push_back({1024, 3.0});
    s.points.push_back({2048, 5.0});
    run.series.push_back(s);
    run.sloThresholdP99 = 900.0;
    run.sloEvents.push_back({2048, "sojourn", 1500.0, 900.0, true});

    const Json doc = run.toJson();
    EXPECT_EQ(doc.at("interval_cycles").asUint(), 1024u);
    EXPECT_EQ(doc.at("samples").asUint(), 2u);
    const Json& series =
        doc.at("series").at("system.metrics.qst_occupancy");
    EXPECT_EQ(series.at("kind").asString(), "gauge");
    EXPECT_EQ(series.at("points").at(1).at(0).asUint(), 2048u);
    EXPECT_DOUBLE_EQ(series.at("points").at(1).at(1).asDouble(), 5.0);
    const Json& slo = doc.at("slo");
    EXPECT_DOUBLE_EQ(slo.at("threshold_p99").asDouble(), 900.0);
    EXPECT_EQ(slo.at("events").at(0).at("direction").asString(),
              "breach");

    metrics::Recorder recorder;
    recorder.add("unit/cell", run);
    const std::string csv = recorder.csv();
    EXPECT_NE(csv.find("cell,series,kind,tick,value\n"),
              std::string::npos);
    EXPECT_NE(csv.find("unit/cell,system.metrics.qst_occupancy,gauge,"
                       "1024,3"),
              std::string::npos);
    EXPECT_NE(csv.find("slo:sojourn"), std::string::npos);
}

namespace
{

/** One small closed-loop accelerated run, sampling on or off. */
QeiRunStats
sampledRun(bool enable)
{
    metrics::runtimeConfig().enabled = enable;
    auto workload = makeWorkloadFactories()[0]();
    World world(11);
    workload->build(world);
    const Prepared prep = workload->prepare(world, 200);
    QeiRunStats stats =
        runQei(world, prep,
               DriverConfig(SchemeConfig::coreIntegrated())
                   .withLabel("unit/cell"));
    metrics::runtimeConfig().enabled = false;
    return stats;
}

} // namespace

TEST(Metrics, SamplingIsTimingNeutralAndCollectsSeries)
{
    metrics::Recorder::global().clear();
    const QeiRunStats off = sampledRun(false);
    const QeiRunStats on = sampledRun(true);

    // Daemon-scheduled sampling must not perturb the simulation:
    // same cycles, same result digest, same query count.
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(off.queries, on.queries);
    EXPECT_EQ(off.resultChecksum, on.resultChecksum);

    // Off: no series anywhere (artifacts keep their shape).
    EXPECT_EQ(off.metrics, nullptr);
    const Json offJson = bench::toJson(off);
    EXPECT_FALSE(offJson.contains("metrics"));

    // On: the standard series exist and carry samples.
    ASSERT_NE(on.metrics, nullptr);
    EXPECT_GT(on.metrics->samples, 0u);
    bool haveOccupancy = false;
    bool haveSojournP99 = false;
    bool haveQueries = false;
    for (const metrics::TimeSeries& s : on.metrics->series) {
        if (s.name == "system.metrics.qst_occupancy")
            haveOccupancy = !s.points.empty();
        if (s.name == "system.metrics.sojourn_p99_w")
            haveSojournP99 = !s.points.empty();
        if (s.name == "system.accel0.queries")
            haveQueries = !s.points.empty();
    }
    EXPECT_TRUE(haveOccupancy);
    EXPECT_TRUE(haveSojournP99);
    EXPECT_TRUE(haveQueries);
    const Json onJson = bench::toJson(on);
    ASSERT_TRUE(onJson.contains("metrics"));
    EXPECT_GT(onJson.at("metrics").at("samples").asUint(), 0u);

    // The run landed in the process-wide Recorder under its label.
    EXPECT_EQ(metrics::Recorder::global().size(), 1u);
    const std::string csv = metrics::Recorder::global().csv();
    EXPECT_NE(csv.find("unit/cell,"), std::string::npos);
    metrics::Recorder::global().clear();
    EXPECT_EQ(metrics::Recorder::global().size(), 0u);
}

TEST(Metrics, DrainResetsForTheNextRunRegion)
{
    metrics::MetricsSampler sampler;
    sampler.addGauge("g", [] { return 1.0; });
    EventQueue events;
    int fired = 0;
    // A little event activity so the daemon has work to shadow.
    for (int i = 0; i < 8; ++i) {
        events.schedule(static_cast<Cycles>(i) * 4096, [&] {
            ++fired;
        });
    }
    sampler.arm(events);
    events.run();
    EXPECT_EQ(fired, 8);
    EXPECT_FALSE(sampler.armed()); // stood down with the queue
    const metrics::RunSeries first = sampler.drain();
    EXPECT_GT(first.samples, 0u);
    ASSERT_EQ(first.series.size(), 1u);
    EXPECT_FALSE(first.series[0].points.empty());

    // After drain, the next region starts from zero samples.
    const metrics::RunSeries empty = sampler.drain();
    EXPECT_EQ(empty.samples, 0u);
    ASSERT_EQ(empty.series.size(), 1u);
    EXPECT_TRUE(empty.series[0].points.empty());
}
