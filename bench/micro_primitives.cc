/**
 * Google-benchmark microbenchmarks for the library primitives: hash
 * functions, cache/TLB/mesh/DRAM models, the event kernel, and one
 * end-to-end accelerated query. These measure *host* performance of
 * the simulator itself (useful when scaling experiments up), not
 * simulated time.
 */

#include <benchmark/benchmark.h>

#include "common/thread_pool.hh"
#include "ds/chained_hash.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

using namespace qei;

namespace {

void
BM_Crc32c(benchmark::State& state)
{
    std::vector<std::uint8_t> buf(
        static_cast<std::size_t>(state.range(0)), 0xA5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            crc32c(buf.data(), buf.size()));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(16)->Arg(100)->Arg(1024);

void
BM_Jhash(benchmark::State& state)
{
    std::vector<std::uint8_t> buf(
        static_cast<std::size_t>(state.range(0)), 0xA5);
    for (auto _ : state)
        benchmark::DoNotOptimize(jhash(buf.data(), buf.size()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_Jhash)->Arg(16)->Arg(100)->Arg(1024);

void
BM_CacheAccess(benchmark::State& state)
{
    Cache cache(CacheParams{"bm", 1 << 20, 16, 14});
    Rng rng(1);
    for (auto _ : state) {
        const Addr a = rng.below(1 << 22) * kCacheLineBytes;
        if (!cache.access(a, false))
            cache.fill(a);
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_TlbLookup(benchmark::State& state)
{
    Tlb tlb(1536, 9);
    for (Addr v = 0; v < 1536; ++v)
        tlb.fill(v);
    Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(tlb.lookup(rng.below(2048)));
}
BENCHMARK(BM_TlbLookup);

void
BM_MeshTraverse(benchmark::State& state)
{
    Mesh mesh;
    Rng rng(3);
    Cycles now = 0;
    for (auto _ : state) {
        const int from = static_cast<int>(rng.below(24));
        const int to = static_cast<int>(rng.below(24));
        benchmark::DoNotOptimize(mesh.traverse(from, to, 64, now));
        ++now;
    }
}
BENCHMARK(BM_MeshTraverse);

void
BM_DramAccess(benchmark::State& state)
{
    Dram dram;
    Rng rng(4);
    Cycles now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dram.access(rng.below(1 << 30), now));
        now += 10;
    }
}
BENCHMARK(BM_DramAccess);

void
BM_EventQueueChurn(benchmark::State& state)
{
    for (auto _ : state) {
        EventQueue q;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            q.schedule(static_cast<Cycles>(i % 97), [&] { ++sink; });
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EventQueueChurn);

void
BM_EventQueueSchedule(benchmark::State& state)
{
    // Pure scheduling cost: push events without draining. Measures
    // the move-only EventFn path (no per-event std::function heap
    // allocation for small captures).
    EventQueue q;
    q.reserve(static_cast<std::size_t>(state.range(0)));
    int sink = 0;
    for (auto _ : state) {
        q.reset();
        for (std::int64_t i = 0; i < state.range(0); ++i) {
            q.schedule(static_cast<Cycles>(i % 97),
                       [&sink] { ++sink; });
        }
        benchmark::DoNotOptimize(q.pending());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_EventQueueSchedule)->Arg(1000)->Arg(10000);

void
BM_EventQueueRunDrain(benchmark::State& state)
{
    // Schedule + drain, including events that reschedule themselves
    // once (the simulator's dominant pattern in the issue loops).
    EventQueue q;
    q.reserve(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        q.reset();
        int sink = 0;
        for (std::int64_t i = 0; i < state.range(0); ++i) {
            q.schedule(static_cast<Cycles>(i % 97), [&q, &sink] {
                q.schedule(5, [&sink] { ++sink; });
            });
        }
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0) * 2);
}
BENCHMARK(BM_EventQueueRunDrain)->Arg(1000)->Arg(10000);

void
BM_ThreadPoolDispatch(benchmark::State& state)
{
    // Submit/complete round-trip cost for trivial tasks: the fixed
    // overhead a (workload x scheme) cell pays to ride the pool.
    ThreadPool pool(static_cast<int>(state.range(0)));
    std::vector<std::future<int>> futures;
    futures.reserve(256);
    for (auto _ : state) {
        futures.clear();
        for (int i = 0; i < 256; ++i)
            futures.push_back(pool.submit([i] { return i; }));
        int sink = 0;
        for (auto& f : futures)
            sink += f.get();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(4)->Arg(8);

void
BM_AcceleratedQuery(benchmark::State& state)
{
    // End-to-end: one blocking query per iteration through the
    // Core-integrated accelerator (host-time cost of the simulation).
    World world(5);
    Rng rng(6);
    std::vector<std::pair<Key, std::uint64_t>> items;
    for (int i = 0; i < 2000; ++i)
        items.emplace_back(randomKey(rng, 16), i);
    SimChainedHash table(world.vm, items, 512);

    Prepared prep;
    prep.profile.nonQueryInstrPerOp = 10;
    for (int i = 0; i < 64; ++i) {
        const Key& key = items[rng.below(items.size())].first;
        QueryTrace t = table.query(key);
        QueryJob job;
        job.headerAddr = table.headerAddr();
        job.keyAddr = table.stageKey(key);
        job.resultAddr = world.vm.alloc(16, 16);
        job.expectFound = t.found;
        job.expectValue = t.resultValue;
        prep.jobs.push_back(job);
        prep.traces.push_back(std::move(t));
    }

    for (auto _ : state) {
        const QeiRunStats stats =
            runQei(world, prep, DriverConfig(SchemeConfig::coreIntegrated()));
        benchmark::DoNotOptimize(stats.cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_AcceleratedQuery);

void
BM_TraceEmit(benchmark::State& state)
{
    // Hot-path cost of one guarded emit into an enabled sink — the
    // per-event budget is < 20 ns.
    trace::TraceSink sink;
    sink.enable(1 << 12);
    const std::uint16_t comp = sink.internComponent("bm.accel0");
    const std::uint32_t name = sink.internName("uop");
    Cycles tick = 0;
    for (auto _ : state) {
        if (trace::active(&sink))
            sink.record(trace::Category::Microcode, comp, name,
                        /*query_id=*/7, tick, /*duration=*/3);
        ++tick;
        benchmark::DoNotOptimize(tick);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceEmit);

void
BM_TraceEmitDisabled(benchmark::State& state)
{
    // Same guarded emit against a disabled sink: the cost every
    // always-instrumented component pays on un-traced runs (one
    // predictable branch).
    trace::TraceSink sink;
    const std::uint16_t comp = sink.internComponent("bm.accel0");
    const std::uint32_t name = sink.internName("uop");
    Cycles tick = 0;
    for (auto _ : state) {
        if (trace::active(&sink))
            sink.record(trace::Category::Microcode, comp, name,
                        /*query_id=*/7, tick, /*duration=*/3);
        ++tick;
        benchmark::DoNotOptimize(tick);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceEmitDisabled);

} // namespace

BENCHMARK_MAIN();
