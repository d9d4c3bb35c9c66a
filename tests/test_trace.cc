/**
 * The qei::trace subsystem: ring-buffer overflow semantics, Perfetto
 * JSON well-formedness (via a qei::Json round trip), span nesting of
 * the per-query breakdown tiles, and the foldTrace() cross-check that
 * the timeline reproduces the live LatencyBreakdown totals exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>

#include "bench_util.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

using namespace qei;

namespace {

/** A sink with one component/name pair ready to record. */
struct TestSink
{
    trace::TraceSink sink;
    std::uint16_t comp = 0;
    std::uint32_t name = 0;

    explicit TestSink(std::size_t capacity)
    {
        sink.enable(capacity);
        comp = sink.internComponent("test.component");
        name = sink.internName("event");
    }
};

} // namespace

TEST(Trace, ActiveGuard)
{
    trace::TraceSink sink;
    EXPECT_FALSE(trace::active(nullptr));
    EXPECT_FALSE(trace::active(&sink)); // disabled by default
    sink.enable(16);
    EXPECT_TRUE(trace::active(&sink));
    sink.disable();
    EXPECT_FALSE(trace::active(&sink));
}

TEST(Trace, InterningIsStableAndDeduplicated)
{
    trace::TraceSink sink; // interning works on a disabled sink
    const auto a = sink.internComponent("system.accel0");
    const auto b = sink.internComponent("system.accel1");
    EXPECT_NE(a, b);
    EXPECT_EQ(a, sink.internComponent("system.accel0"));
    const auto n = sink.internName("query");
    EXPECT_EQ(n, sink.internName("query"));
    EXPECT_NE(n, sink.internName("deliver"));
}

TEST(Trace, RingWrapKeepsNewestEvents)
{
    TestSink t(8);
    for (Cycles tick = 0; tick < 20; ++tick) {
        t.sink.record(trace::Category::Sim, t.comp, t.name,
                      trace::kNoQuery, tick, 1);
    }
    EXPECT_EQ(t.sink.emitted(), 20u);
    EXPECT_EQ(t.sink.size(), 8u);
    EXPECT_EQ(t.sink.dropped(), 12u);

    // ordered() returns oldest-first: ticks 12..19 survive.
    const auto events = t.sink.ordered();
    ASSERT_EQ(events.size(), 8u);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].tick, 12 + static_cast<Cycles>(i));

    // drain() hands the same view over and resets the ring.
    const trace::TraceBuffer buf = t.sink.drain();
    EXPECT_EQ(buf.events.size(), 8u);
    EXPECT_EQ(buf.emitted, 20u);
    EXPECT_EQ(buf.dropped, 12u);
    EXPECT_EQ(buf.events.front().tick, 12u);
    EXPECT_EQ(t.sink.size(), 0u);
    EXPECT_EQ(t.sink.emitted(), 0u);
}

TEST(Trace, ReenableKeepsCapacityAndDoesNotReallocate)
{
    TestSink t(8);
    t.sink.record(trace::Category::Sim, t.comp, t.name,
                  trace::kNoQuery, 1, 1);
    t.sink.disable();
    t.sink.enable(8); // same capacity: contents survive
    EXPECT_EQ(t.sink.size(), 1u);
    t.sink.enable(16); // resize drops the old ring
    EXPECT_EQ(t.sink.size(), 0u);
}

TEST(Trace, PerfettoJsonRoundTrips)
{
    TestSink t(64);
    // One complete span, one instant (duration 0), one with a query.
    t.sink.record(trace::Category::Mem, t.comp, t.name,
                  trace::kNoQuery, 10, 5);
    t.sink.record(trace::Category::Qst, t.comp, t.name,
                  trace::kNoQuery, 20, 0);
    t.sink.record(trace::Category::Query, t.comp, t.name, 42, 30, 7);

    const trace::TraceBuffer buf = t.sink.drain();
    const std::string text =
        trace::perfettoJson(buf, "unit/test").dump(2);

    // Well-formed: qei::Json parses its own dump back.
    const Json doc = Json::parse(text);
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");
    const Json& events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    // Metadata (process_name + one thread_name) plus three events.
    ASSERT_EQ(events.size(), 5u);

    EXPECT_EQ(events.at(0).at("ph").asString(), "M");
    EXPECT_EQ(events.at(0).at("name").asString(), "process_name");
    EXPECT_EQ(events.at(0).at("args").at("name").asString(),
              "unit/test");
    EXPECT_EQ(events.at(1).at("ph").asString(), "M");

    const Json& span = events.at(2);
    EXPECT_EQ(span.at("ph").asString(), "X");
    EXPECT_EQ(span.at("cat").asString(), "mem");
    EXPECT_EQ(span.at("ts").asUint(), 10u);
    EXPECT_EQ(span.at("dur").asUint(), 5u);
    EXPECT_FALSE(span.contains("args"));

    const Json& instant = events.at(3);
    EXPECT_EQ(instant.at("ph").asString(), "i");
    EXPECT_EQ(instant.at("s").asString(), "t");
    EXPECT_FALSE(instant.contains("dur"));

    const Json& query = events.at(4);
    EXPECT_EQ(query.at("cat").asString(), "query");
    EXPECT_EQ(query.at("args").at("query").asUint(), 42u);
}

TEST(Trace, PerfettoCounterTrackRoundTrips)
{
    // Category::Metric events carry a double value and export as
    // Perfetto counter tracks ("ph":"C") — the metrics sampler's
    // QST-occupancy / event-queue-depth series.
    TestSink t(16);
    const auto comp = t.sink.internComponent("system.metrics");
    const auto occupancy = t.sink.internName("qst_occupancy");
    const auto depth = t.sink.internName("event_queue_depth");
    t.sink.recordCounter(comp, occupancy, 100, 3.0);
    t.sink.recordCounter(comp, depth, 100, 17.0);
    t.sink.recordCounter(comp, occupancy, 200, 4.5);

    const trace::TraceBuffer buf = t.sink.drain();
    ASSERT_EQ(buf.events.size(), 3u);
    EXPECT_EQ(buf.events[0].category, trace::Category::Metric);
    EXPECT_DOUBLE_EQ(buf.events[2].value, 4.5);

    const Json doc = Json::parse(
        trace::perfettoJson(buf, "unit/counters").dump(2));
    const Json& events = doc.at("traceEvents");
    // process_name plus one thread_name per interned component (the
    // TestSink pre-interns one), then the three counter samples.
    ASSERT_EQ(events.size(), 6u);
    for (std::size_t i = 3; i < 6; ++i) {
        const Json& ev = events.at(i);
        EXPECT_EQ(ev.at("ph").asString(), "C") << i;
        EXPECT_EQ(ev.at("cat").asString(), "metric") << i;
        EXPECT_FALSE(ev.contains("dur")) << i;
        EXPECT_TRUE(ev.at("args").contains("value")) << i;
    }
    EXPECT_EQ(events.at(3).at("name").asString(), "qst_occupancy");
    EXPECT_EQ(events.at(3).at("ts").asUint(), 100u);
    EXPECT_DOUBLE_EQ(events.at(3).at("args").at("value").asDouble(),
                     3.0);
    EXPECT_DOUBLE_EQ(events.at(5).at("args").at("value").asDouble(),
                     4.5);
}

namespace {

/** Run one small accelerated workload with the sink armed. */
trace::TraceBuffer
tracedRun(QeiRunStats& stats_out)
{
    World world(7);
    const auto workload = makeWorkloadFactories()[0]();
    workload->build(world);
    const Prepared prepared = workload->prepare(world, 150);
    world.traceSink.enable(std::size_t{1} << 20); // no drops
    stats_out =
        runQei(world, prepared, DriverConfig(SchemeConfig::coreIntegrated()));
    trace::TraceBuffer buf = world.traceSink.drain();
    EXPECT_EQ(buf.dropped, 0u);
    return buf;
}

} // namespace

TEST(Trace, FoldedBreakdownMatchesLiveTotals)
{
    QeiRunStats stats;
    const trace::TraceBuffer buf = tracedRun(stats);
    ASSERT_GT(buf.events.size(), 0u);

    const trace::FoldedBreakdown fold = trace::foldTrace(buf);
    EXPECT_EQ(fold.queries, stats.breakdownQueries);
    EXPECT_EQ(fold.endToEnd, stats.breakdownEndToEnd);

    Cycles componentSum = 0;
    for (std::size_t i = 0; i < trace::kLatencyComponentCount; ++i) {
        const auto c = static_cast<trace::LatencyComponent>(i);
        ASSERT_TRUE(stats.breakdownCycles.count(trace::toString(c)));
        EXPECT_EQ(fold.totals[i],
                  stats.breakdownCycles.at(trace::toString(c)))
            << trace::toString(c);
        componentSum += fold.totals[i];
    }
    // Every cycle of every query is charged to exactly one component:
    // the tiles sum to the end-to-end total, no gaps, no overlaps.
    EXPECT_EQ(componentSum, stats.breakdownEndToEnd);
    EXPECT_GT(stats.breakdownQueries, 0u);
    EXPECT_GT(stats.breakdownEndToEnd, 0u);
}

TEST(Trace, BreakdownSpansTileTheQuerySpan)
{
    QeiRunStats stats;
    const trace::TraceBuffer buf = tracedRun(stats);

    struct Span
    {
        Cycles tick;
        Cycles duration;
    };
    std::map<std::uint64_t, Span> queries;
    std::map<std::uint64_t, std::vector<Span>> tiles;
    for (const trace::TraceEvent& ev : buf.events) {
        if (ev.category == trace::Category::Query)
            queries[ev.queryId] = {ev.tick, ev.duration};
        else if (ev.category == trace::Category::Breakdown)
            tiles[ev.queryId].push_back({ev.tick, ev.duration});
    }
    ASSERT_EQ(queries.size(), stats.breakdownQueries);

    for (const auto& [qid, span] : queries) {
        ASSERT_TRUE(tiles.count(qid)) << "query " << qid;
        auto& parts = tiles.at(qid);
        std::sort(parts.begin(), parts.end(),
                  [](const Span& a, const Span& b) {
                      return a.tick < b.tick;
                  });
        // Contiguous tiling: starts with the query, each tile begins
        // where the previous ended, ends at the query's end.
        Cycles cursor = span.tick;
        for (const Span& part : parts) {
            EXPECT_EQ(part.tick, cursor) << "query " << qid;
            cursor += part.duration;
        }
        EXPECT_EQ(cursor, span.tick + span.duration)
            << "query " << qid;
    }
}

TEST(Trace, MatrixTraceFilesAreWellFormed)
{
    // End to end through the matrix writer: one merged file plus one
    // per cell, all parseable.
    const std::string path = "test_trace_matrix.json";
    bench::MatrixOptions matrix;
    matrix.queries = 60;
    matrix.topologies = {SchemeConfig::coreIntegrated()};
    matrix.tracePath = path;
    auto factories = makeWorkloadFactories();
    factories.resize(1);
    const auto runs = bench::runWorkloadMatrix(factories, matrix);
    ASSERT_EQ(runs.size(), 1u);
    ASSERT_EQ(runs[0].traces.size(), 2u); // baseline + 1 scheme

    for (const std::string file :
         {path, "test_trace_matrix." + runs[0].name + ".baseline.json",
          "test_trace_matrix." + runs[0].name + "." +
              SchemeConfig::coreIntegrated().name() + ".json"}) {
        std::ifstream in(file);
        ASSERT_TRUE(in.good()) << file;
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        const Json doc = Json::parse(text);
        ASSERT_TRUE(doc.at("traceEvents").isArray()) << file;
        EXPECT_GT(doc.at("traceEvents").size(), 0u) << file;
        std::remove(file.c_str());
    }
}
