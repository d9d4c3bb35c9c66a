#include "system.hh"

#include <algorithm>

#include "common/hash.hh"
#include "qei/driver.hh"
#include "qei/planner.hh"

namespace qei {

QeiSystem::QeiSystem(const ChipConfig& chip, EventQueue& events,
                     MemoryHierarchy& memory, VirtualMemory& vm,
                     const FirmwareStore& firmware,
                     const Topology& topo,
                     trace::TraceSink* trace_sink)
    : SimObject("system"), chip_(chip), events_(events),
      memory_(memory), vm_(vm), topo_(topo), scheme_(topo.params()),
      remoteCmps_(memory.cores(), chip.qei.comparatorsPerCha)
{
    // Injected QST shrink (capacity-pressure fault): apply before
    // anything sizes off the topology — accelerator tables,
    // completion arrays, and the software-side reservation limits all
    // read the (per-instance) qstEntries.
    if (chip_.faults.qstEntriesOverride > 0) {
        topo_.limitQstEntries(chip_.faults.qstEntriesOverride);
        scheme_ = topo_.params();
    }

    // The shared memory system and address space join this system's
    // component tree for the duration of the run (re-adopted by the
    // next QeiSystem; adopt() re-parents).
    adopt(memory_);
    adopt(vm_);
    adopt(remoteCmps_);
    for (int c = 0; c < memory.cores(); ++c) {
        mmus_.push_back(std::make_unique<Mmu>(vm, chip.mmu));
        adopt(*mmus_.back(), fmt("mmu{}", c));
    }

    env_ = std::make_unique<AccelEnv>(AccelEnv{
        events_, memory_, vm_, {}, &remoteCmps_, firmware, scheme_});
    for (auto& m : mmus_)
        env_->coreMmus.push_back(m.get());

    // Instances live where the topology's placements put them (the
    // canonical scheme topologies reproduce the historical layout:
    // device instance on its tile, replicated instances one per
    // tile, home core = own core when per-core, else core 0). A
    // heterogeneous topology (the planner's mixed-workload unions)
    // sizes each instance off its own parameter block.
    const std::vector<AcceleratorPlacement>& places =
        topo_.placements();
    for (std::size_t i = 0; i < places.size(); ++i) {
        const SchemeConfig& params =
            topo_.paramsFor(static_cast<int>(i));
        DpuParams dpu;
        dpu.alus = chip.qei.alusPerDpu;
        dpu.comparators = params.accelerators == 1
                              ? chip.qei.comparatorsPerDpu
                              : chip.qei.comparatorsPerCha;
        accels_.push_back(std::make_unique<Accelerator>(
            static_cast<int>(i), places[i].tile, places[i].homeCore,
            *env_, dpu, places[i].params ? &params : nullptr));
        adopt(*accels_.back(), places[i].name);
    }

    if (chip_.faults.any()) {
        faults_ = std::make_unique<FaultInjector>(chip_.faults);
        adopt(*faults_);
        env_->faults = faults_.get();
    }
    watchdog_ = std::make_unique<sim::Watchdog>(
        events_,
        sim::Watchdog::Params{chip_.faults.watchdogEpoch,
                              chip_.faults.watchdogStrikes});
    adopt(*watchdog_);
    watchdog_->setDump([this] { return dumpForWatchdog(); });
    // Secondary progress signal: a whole-buffer scan can run for many
    // epochs without retiring, but its micro-op count keeps moving.
    watchdog_->setProgressProbe([this] {
        std::uint64_t sum = 0;
        for (const auto& a : accels_)
            sum += a->microOps();
        return sum;
    });

    adopt(breakdown_);
    driverStats_ = std::make_unique<DriverMetrics>();
    adopt(*driverStats_);
    batchStats_ = std::make_unique<BatchMetrics>();
    adopt(*batchStats_);
    batchStats_->setProbes(
        [this] {
            std::uint64_t sum = 0;
            for (const auto& a : accels_)
                sum += a->batchHeaderHits();
            return sum;
        },
        [this] {
            std::uint64_t sum = 0;
            for (const auto& a : accels_)
                sum += a->batchLineHits();
            return sum;
        });
    trace_ = trace_sink;
    if (trace_ != nullptr) {
        // Attach after adoption so interned component paths are the
        // fully qualified tree paths.
        for (auto& m : mmus_)
            m->setTraceSink(trace_);
        for (auto& a : accels_)
            a->setTraceSink(trace_);
        traceComp_ = trace_->internComponent(fullPath() + ".breakdown");
        traceQueryName_ = trace_->internName("query");
        for (std::size_t i = 0; i < trace::kLatencyComponentCount; ++i) {
            traceBreakdownName_[i] = trace_->internName(
                trace::toString(static_cast<trace::LatencyComponent>(i)));
        }
    }
}

QeiSystem::~QeiSystem() = default;

Topology::RouteContext
QeiSystem::routeContext()
{
    Topology::RouteContext ctx{vm_, memory_, {}};
    // Live QST free-slot probe for occupancy-aware routes (sharded
    // work stealing). Probing changes no timing.
    ctx.freeSlots = [this](int idx) {
        const Accelerator& a =
            *accels_[static_cast<std::size_t>(idx)];
        return a.params().qstEntries - a.qst().occupied();
    };
    return ctx;
}

Accelerator&
QeiSystem::acceleratorFor(Addr key_addr, int issuing_core)
{
    const int idx =
        topo_.route(key_addr, issuing_core, routeContext());
    return *accels_[static_cast<std::size_t>(idx)];
}

Cycles
QeiSystem::submitLatency(int core, const Accelerator& target, Cycles now)
{
    // Per-instance parameters: a heterogeneous deployment mixes
    // submit paths on one chip.
    const SchemeConfig& params = target.params();
    Cycles lat = params.submitLatency;
    if (params.accelerators == 1) {
        lat += memory_.messageOneWay(core, target.tile(), now);
        lat += params.deviceIfLatency;
    } else if (!params.perCore) {
        lat += memory_.messageOneWay(core, target.tile(), now);
    }
    return std::max<Cycles>(lat, 1);
}

Cycles
QeiSystem::responseLatency(int core, const Accelerator& target,
                           Cycles now)
{
    // Symmetric with submission.
    return submitLatency(core, target, now);
}

void
QeiSystem::recordCompletion(const QstEntry& entry, Cycles issue_at,
                            Cycles response_latency,
                            Cycles queue_wait, bool degraded)
{
    watchdog_->noteProgress();
    trace::QueryAttribution a;
    for (std::size_t i = 0; i < trace::kLatencyComponentCount; ++i)
        a.cycles[i] = entry.attr[i];
    // Everything between the core issuing QUERY and the accelerator
    // accepting it: the submission message, plus (non-blocking only)
    // any back-off while the target QST was full.
    a.add(trace::LatencyComponent::Submit, entry.enqueued - issue_at);
    a.add(trace::LatencyComponent::Response, response_latency);

    // The callback fires once delivery lands, so now() already covers
    // the accelerator-side latency; only the core-side return is left.
    const Cycles endToEnd =
        (events_.now() + response_latency) - issue_at;
    a.endToEnd = endToEnd;
    if (degraded) {
        // Shed-and-degraded work is charged to the breakdown below
        // but kept out of the admitted-only serving histograms and
        // the tail monitor.
        driverStats_->recordDegraded(entry.tenant, queue_wait,
                                     endToEnd);
    } else {
        driverStats_->record(queue_wait, endToEnd, entry.tenant);
        if (metrics::active(metrics_)) {
            metrics_->onSojourn(
                static_cast<double>(queue_wait + endToEnd));
        }
    }
    // Zero by construction (every scheduled delay is charged to one
    // component); anything unaccounted would land in Other.
    const Cycles accounted = a.sum();
    if (endToEnd > accounted)
        a.add(trace::LatencyComponent::Other, endToEnd - accounted);
    breakdown_.record(a);

    if (trace::active(trace_)) {
        trace_->record(trace::Category::Query, traceComp_,
                       traceQueryName_, entry.queryId, issue_at,
                       endToEnd);
        // Tile the query span with one sub-span per non-zero
        // component, in charge order, so Perfetto shows the
        // decomposition stacked under the query track.
        Cycles cursor = issue_at;
        for (std::size_t i = 0; i < trace::kLatencyComponentCount;
             ++i) {
            if (a.cycles[i] == 0)
                continue;
            trace_->record(trace::Category::Breakdown, traceComp_,
                           traceBreakdownName_[i], entry.queryId,
                           cursor, a.cycles[i]);
            cursor += a.cycles[i];
        }
    }
}

bool
QeiSystem::beginRun(QeiRunStats& stats, std::size_t jobs)
{
    simAssert(!ran_,
              "a QeiSystem runs once: its counters would sum over both "
              "runs; build a new system for the next run");
    ran_ = true;
    stats.queries = jobs;
    if (jobs == 0)
        finishRun(stats, 0);
    return jobs > 0;
}

void
QeiSystem::finishRun(QeiRunStats& stats, Cycles cycles) const
{
    for (std::size_t i = 0; i < trace::kLatencyComponentCount; ++i) {
        const auto c = static_cast<trace::LatencyComponent>(i);
        stats.breakdownCycles[trace::toString(c)] =
            breakdown_.componentTotal(c);
    }
    stats.breakdownEndToEnd = breakdown_.endToEndTotal();
    stats.breakdownQueries = breakdown_.queries();
    // An empty run reports its (empty) breakdown and nothing else.
    if (stats.queries == 0)
        return;

    stats.cycles = cycles;
    collectAccelStats(stats);
    if (faults_ != nullptr) {
        stats.faultsInjected = faults_->injected();
        stats.swFallbacks = faults_->swFallbacks();
        stats.swFallbackCycles = faults_->swFallbackCycles();
        stats.faultFlushes = faults_->flushes();
    }
    if (planner_ != nullptr) {
        stats.plannerDecisions = planner_->decisions();
        stats.plannerCoreExecutes = planner_->coreExecutes();
    }
    stats.qstBackoffs = backoffs_.value();
    stats.batches = batchStats_->batches().value();
    stats.batchedQueries = batchStats_->queries().value();
    stats.batchBackoffs = batchStats_->backoffs().value();
}

void
QeiSystem::warmTlbs(const std::vector<Addr>& vpns)
{
    for (auto& mmu : mmus_)
        mmu->prefillL2(vpns);
    for (auto& accel : accels_) {
        if (accel->dedicatedTlb() != nullptr)
            accel->dedicatedTlb()->prefill(vpns);
    }
}

StatsRegistry
QeiSystem::statsRegistry()
{
    StatsRegistry registry;
    regStatsTree(registry);
    return registry;
}

std::uint64_t
QeiSystem::liveBackoffs() const
{
    return backoffs_.value() + batchStats_->backoffs().value();
}

std::string
QeiSystem::renderStats()
{
    std::string out;
    std::uint64_t mem = 0;
    std::uint64_t uops = 0;
    std::uint64_t rcmp = 0;
    std::uint64_t done = 0;
    for (const auto& a : accels_) {
        mem += a->memAccesses();
        uops += a->microOps();
        rcmp += a->remoteCompares();
        done += a->completedQueries();
        if (a->completedQueries() > 0) {
            out += fmt("accel.{} queries={} occupancy(mean)={:.2f} "
                       "uops={} mem={} remote-cmp={} exceptions={}\n",
                       a->id(), a->completedQueries(),
                       a->qstOccupancy().mean(), a->microOps(),
                       a->memAccesses(), a->remoteCompares(),
                       a->exceptions());
        }
    }
    out += fmt("total queries={} uops={} mem-accesses={} "
               "remote-compares={}\n",
               done, uops, mem, rcmp);
    out += fmt("llc hit-rate={:.3f} dram accesses={} noc bytes={} "
               "noc peak-link-util={:.3f}\n",
               memory_.llcHitRate(), memory_.dram().accesses(),
               memory_.mesh().totalBytes(),
               memory_.mesh().peakLinkUtilisation());
    out += statsRegistry().render(/*skip_zero=*/true);
    return out;
}

std::string
QeiSystem::dumpStatsJson()
{
    return statsRegistry().dumpJson();
}

Cycles
QeiSystem::flushAll()
{
    Cycles worst = 0;
    for (auto& a : accels_)
        worst = std::max(worst, a->flush());
    return worst;
}

void
QeiSystem::setSoftwareFallback(const std::vector<QueryTrace>* traces,
                               const RoiProfile& profile)
{
    fallbackTraces_ = traces;
    fallbackProfile_ = profile;
}

void
QeiSystem::ensureFallbackCore()
{
    if (fallbackCore_ != nullptr)
        return;
    fallbackHierarchy_ =
        std::make_unique<MemoryHierarchy>(chip_.memory);
    adopt(*fallbackHierarchy_, "fallback_mem");
    // Same steady state the main hierarchy runs in: the whole mapped
    // footprint LLC-resident (World::warmLlc), private caches cold.
    for (const auto& [vpn, pfn] : vm_.pageTable().entries()) {
        (void)vpn;
        const Addr base = pfn * kPageBytes;
        for (std::uint32_t off = 0; off < kPageBytes;
             off += kCacheLineBytes) {
            fallbackHierarchy_->preloadLlc(base + off);
        }
    }
    fallbackMmu_ = std::make_unique<Mmu>(vm_, chip_.mmu);
    adopt(*fallbackMmu_, "fallback_mmu");
    fallbackCore_ = std::make_unique<CoreModel>(
        0, chip_.core, *fallbackHierarchy_, *fallbackMmu_);
    adopt(*fallbackCore_, "fallback_core");
}

Cycles
QeiSystem::recoverInSoftware(QstEntry& entry, const QueryJob& job)
{
    if (entry.error == QueryError::None || !faultRecoveryActive())
        return 0;
    ensureFallbackCore();
    // The interval core restarts its clock each invocation; reset the
    // queue state it shares with previous fallbacks so the timing is a
    // pure function of the query, not of recovery order.
    fallbackCore_->reset();
    fallbackHierarchy_->dram().reset();
    fallbackHierarchy_->mesh().resetTraffic();

    // Trap delivery, OS fault service, and user-level re-dispatch
    // before the software walk itself starts (Sec. IV-D).
    constexpr Cycles kTrapOverhead = 150;
    Cycles sw = kTrapOverhead;
    const std::uint64_t qid = entry.queryId;
    if (qid < fallbackTraces_->size()) {
        const std::vector<QueryTrace> one(1, (*fallbackTraces_)[qid]);
        sw += fallbackCore_->runQueries(one, fallbackProfile_).cycles;
    }

    if (faults_ != nullptr)
        faults_->onSwFallback(sw);
    entry.error = QueryError::None;
    entry.success = job.expectFound;
    entry.resultValue = job.expectFound ? job.expectValue : 0;
    entry.attr[static_cast<std::size_t>(
        trace::LatencyComponent::SwFallback)] += sw;
    // Software overwrites the error code with the real result.
    writeResultSlot(entry);
    return sw;
}

void
QeiSystem::writeResultSlot(const QstEntry& entry)
{
    if (entry.mode != QueryMode::NonBlocking ||
        entry.resultAddr == kNullAddr ||
        !vm_.tryTranslate(entry.resultAddr))
        return;
    vm_.write<std::uint64_t>(entry.resultAddr, entry.success ? 1 : 2);
    vm_.write<std::uint64_t>(entry.resultAddr + 8, entry.resultValue);
}

void
QeiSystem::armFaultDaemons()
{
    watchdog_->arm();
    if (metrics::active(metrics_))
        metrics_->arm(events_);
    if (faults_ != nullptr && chip_.faults.flushPeriod > 0 &&
        !flusherArmed_) {
        flusherArmed_ = true;
        events_.scheduleDaemon(chip_.faults.flushPeriod,
                               [this] { flushTick(); });
    }
}

void
QeiSystem::flushTick()
{
    if (events_.pendingWork() == 0) {
        // Run region drained: stop so the event loop can return; the
        // next region (a QUERY_NB poll batch) re-arms.
        flusherArmed_ = false;
        return;
    }
    injectedFlush();
    events_.scheduleDaemon(chip_.faults.flushPeriod,
                           [this] { flushTick(); });
}

void
QeiSystem::injectedFlush()
{
    if (faults_ != nullptr)
        faults_->onFlush();
    struct Dropped
    {
        QstEntry snapshot;
        Accelerator::CompletionFn done;
    };
    std::vector<Dropped> dropped;
    Cycles worst = 0;
    for (auto& a : accels_) {
        const Cycles cost =
            a->flush([&](const QstEntry& snapshot,
                         Accelerator::CompletionFn done) {
                if (faults_ != nullptr)
                    faults_->onFlushedQuery();
                dropped.push_back({snapshot, std::move(done)});
            });
        worst = std::max(worst, cost);
    }
    // Each dropped query reappears to software once the flush drains;
    // its completion runs through the normal recovery path (the
    // snapshot carries error=Aborted).
    const Cycles drain = worst + 1;
    for (auto& d : dropped) {
        if (!d.done)
            continue;
        QstEntry snapshot = d.snapshot;
        snapshot.attr[static_cast<std::size_t>(
            trace::LatencyComponent::Flush)] += drain;
        snapshot.completed = events_.now() + drain;
        events_.schedule(drain, [snapshot,
                                 done = std::move(d.done)] {
            done(snapshot);
        });
    }
}

std::string
QeiSystem::dumpForWatchdog() const
{
    auto phaseName = [](QstPhase p) {
        switch (p) {
          case QstPhase::Idle: return "Idle";
          case QstPhase::FetchHeader: return "FetchHeader";
          case QstPhase::Running: return "Running";
          case QstPhase::Done: return "Done";
          case QstPhase::Exception: return "Exception";
        }
        return "?";
    };
    std::string out = fmt("scheme={} events pending={} (daemons={})\n",
                          scheme_.name(), events_.pending(),
                          events_.daemons());
    for (const auto& a : accels_) {
        const QueryStateTable& qst = a->qst();
        if (qst.occupied() == 0)
            continue;
        out += fmt("accel{} qst {}/{}:", a->id(), qst.occupied(),
                   qst.capacity());
        for (int id : qst.activeIds()) {
            const QstEntry& e = qst.at(id);
            out += fmt(" [{}:q{} {} state={} ready={}]", id, e.queryId,
                       phaseName(e.phase), e.state,
                       e.ready ? 1 : 0);
        }
        out += "\n";
    }
    return out;
}

bool
QeiSystem::plannerKeepsOnCore(const QueryJob& job)
{
    // Core execution needs the software view of the jobs; without it
    // the planner can only route (which the topology already does).
    return planner_ != nullptr && fallbackTraces_ != nullptr &&
           planner_->coreExecute(job.keyAddr);
}

Cycles
QeiSystem::executeOnCore(const QueryJob& job, std::size_t query_id,
                         QueryMode mode, Cycles issue_at,
                         Cycles queue_wait, int tenant, bool degraded,
                         QeiRunStats& stats, RetireFn on_retire)
{
    ensureFallbackCore();
    // Same determinism discipline as recoverInSoftware: the interval
    // core restarts its clock per invocation.
    fallbackCore_->reset();
    fallbackHierarchy_->dram().reset();
    fallbackHierarchy_->mesh().resetTraffic();
    Cycles sw = 1;
    if (query_id < fallbackTraces_->size()) {
        const std::vector<QueryTrace> one(1,
                                          (*fallbackTraces_)[query_id]);
        sw = std::max<Cycles>(
            1, fallbackCore_->runQueries(one, fallbackProfile_).cycles);
    }

    // The functional outcome is the software reference's; enqueued ==
    // issue, so Submit is zero.
    QstEntry entry;
    entry.queryId = query_id;
    entry.mode = mode;
    entry.tenant = tenant;
    entry.resultAddr = job.resultAddr;
    entry.success = job.expectFound;
    entry.resultValue = job.expectFound ? job.expectValue : 0;
    entry.enqueued = issue_at;
    entry.completed = issue_at + sw;
    entry.attr[static_cast<std::size_t>(
        trace::LatencyComponent::SwFallback)] += sw;
    auto retire = [this, &job, entry, queue_wait, degraded, &stats,
                   on_retire = std::move(on_retire)]() {
        // The core fills the slot the polling loop reads.
        writeResultSlot(entry);
        recordCompletion(entry, entry.enqueued, 0, queue_wait, degraded);
        if (!matchesExpectation(entry, job))
            ++stats.mismatches;
        stats.resultChecksum ^= resultDigest(entry);
        on_retire(entry, entry.completed);
    };
    events_.scheduleAt(entry.completed, std::move(retire));
    return sw;
}

// Shared by the run loops below and the Driver's serving loop
// (driver.cc), hence members rather than file-local helpers.

/** Gather per-accelerator counters into run stats. */
void
QeiSystem::collectAccelStats(QeiRunStats& stats) const
{
    double occSum = 0.0;
    double occCount = 0.0;
    for (const auto& a : accels_) {
        stats.memAccesses += a->memAccesses();
        stats.microOps += a->microOps();
        stats.remoteCompares += a->remoteCompares();
        stats.exceptions += a->exceptions();
        stats.batchHeaderHits += a->batchHeaderHits();
        stats.batchLineHits += a->batchLineHits();
        occSum += a->qstOccupancy().sum();
        occCount += static_cast<double>(a->qstOccupancy().count());
        // The paper reports 50-90% occupancy on the busy instances.
    }
    stats.avgQstOccupancy = occCount > 0 ? occSum / occCount : 0.0;
}

/** Validate a completed entry against the job's expected outcome. */
bool
QeiSystem::matchesExpectation(const QstEntry& entry,
                              const QueryJob& job)
{
    if (entry.error != QueryError::None)
        return false;
    if (entry.success != job.expectFound)
        return false;
    return !job.expectFound || entry.resultValue == job.expectValue;
}

/**
 * Mix one query's functional outcome into the order-independent run
 * digest. Only the architectural outcome participates: queryId,
 * found/not-found, and (for found queries) the value — so a recovered
 * query folds identically to its fault-free twin. Not-found queries
 * ignore resultValue, matching matchesExpectation.
 */
std::uint64_t
QeiSystem::resultDigest(const QstEntry& entry)
{
    std::uint64_t x = entry.queryId + 0x9E3779B97F4A7C15ULL;
    x ^= entry.success ? 0xBF58476D1CE4E5B9ULL : 0x94D049BB133111EBULL;
    x += entry.success ? entry.resultValue : 0;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
}

QeiSystem::BlockingWindow
QeiSystem::blockingWindow(const RoiProfile& profile) const
{
    BlockingWindow w;
    w.instr = profile.nonQueryInstrPerOp + 1;
    // A blocking query holds a ROB slot until it retires; with
    // `instr` instructions between queries the OoO window covers at
    // most this many outstanding queries (Sec. VII-A).
    const int robLimit = std::max(
        1, chip_.core.robEntries / static_cast<int>(w.instr));
    w.maxInflight = std::min(robLimit, chip_.core.loadQueueEntries);
    w.fetchGap = static_cast<double>(profile.nonQueryInstrPerOp) /
                     chip_.core.issueWidth +
                 profile.frontendStallPerInstr * w.instr;
    w.issueGap =
        w.fetchGap +
        static_cast<double>(profile.nonQueryMispredictsPerOp) *
            static_cast<double>(chip_.core.branchMispredictPenalty);
    return w;
}

void
QeiSystem::submitBlocking(Accelerator& target,
                          const std::vector<QueryJob>& jobs,
                          std::size_t job_idx, int core, Cycles issue_at,
                          Cycles queue_wait, int tenant,
                          QeiRunStats& stats, RetireFn on_retire)
{
    const Cycles submitAt =
        issue_at + submitLatency(core, target, issue_at);
    events_.scheduleAt(submitAt, [this, &target, &jobs, job_idx, core,
                                  issue_at, queue_wait, tenant, &stats,
                                  on_retire =
                                      std::move(on_retire)]() mutable {
        const QueryJob& j = jobs[job_idx];
        const int slot = target.enqueue(
            j.headerAddr, j.keyAddr, kNullAddr, QueryMode::Blocking,
            job_idx,
            [this, &target, &j, core, issue_at, queue_wait, &stats,
             on_retire = std::move(on_retire)](
                const QstEntry& raw) mutable {
                retireCompletion(raw, j, target, core, issue_at,
                                 queue_wait, stats, std::move(on_retire));
            },
            tenant);
        simAssert(slot >= 0, "QST overflow despite software tracking");
    });
}

void
QeiSystem::retireCompletion(const QstEntry& raw, const QueryJob& job,
                            const Accelerator& target, int core,
                            Cycles issue_at, Cycles queue_wait,
                            QeiRunStats& stats, RetireFn on_retire)
{
    // Faulted or flushed? Re-run in software before the core sees the
    // retirement.
    QstEntry entry = raw;
    const Cycles sw = recoverInSoftware(entry, job);
    auto retire = [this, entry, &job, &target, core, issue_at,
                   queue_wait, &stats,
                   on_retire = std::move(on_retire)]() {
        const Cycles now = events_.now();
        // Only a QUERY_B returns its result to the core.
        const Cycles respLat = entry.mode == QueryMode::Blocking
                                   ? responseLatency(core, target, now)
                                   : 0;
        recordCompletion(entry, issue_at, respLat, queue_wait);
        if (!matchesExpectation(entry, job))
            ++stats.mismatches;
        stats.resultChecksum ^= resultDigest(entry);
        on_retire(entry, now + respLat);
    };
    if (sw > 0)
        events_.schedule(sw, std::move(retire));
    else
        retire();
}

QeiRunStats
QeiSystem::runBlocking(const std::vector<QueryJob>& jobs,
                       int issuing_core, const RoiProfile& profile)
{
    QeiRunStats stats;
    if (!beginRun(stats, jobs.size()))
        return stats;

    const BlockingWindow window = blockingWindow(profile);
    std::size_t nextJob = 0;
    int inflight = 0;
    double fetchTime = 0.0;
    Cycles lastRetire = 0;
    double inflightPeak = 0.0;
    // Software-side slot tracking (Sec. IV-A): queries issued but not
    // yet completed, per accelerator instance, including those still
    // in flight towards the Query Queue. Accelerator ids are dense
    // [0, accelerators), so a flat array replaces the former
    // std::map<const Accelerator*, int> — no tree walk per issue.
    std::vector<int> reserved(accels_.size(), 0);

    // Issue as many queries as the window and the QST allow; resumed
    // from every completion.
    std::function<void()> issueLoop = [&]() {
        while (nextJob < jobs.size() && inflight < window.maxInflight) {
            const QueryJob& job = jobs[nextJob];
            // Planned core execution: the core runs the walk itself
            // (no trap overhead — this is a decision, not a fault)
            // and its pipeline stays busy until the walk retires. No
            // QST slot is touched.
            Accelerator* target = nullptr;
            if (!plannerKeepsOnCore(job)) {
                target = &acceleratorFor(job.keyAddr, issuing_core);
                if (reserved[static_cast<std::size_t>(target->id())] >=
                    target->params().qstEntries)
                    break; // software waits for a slot (Sec. IV-A)
            }

            fetchTime = std::max(
                fetchTime, static_cast<double>(events_.now()));
            fetchTime += window.issueGap;
            stats.coreInstructions += window.instr;
            const Cycles issueAt = static_cast<Cycles>(fetchTime);

            ++inflight;
            inflightPeak =
                std::max(inflightPeak, static_cast<double>(inflight));
            if (target == nullptr) {
                fetchTime += static_cast<double>(executeOnCore(
                    job, nextJob++, QueryMode::Blocking, issueAt, 0, 0,
                    false, stats, [&](const QstEntry&, Cycles retireAt) {
                        lastRetire = std::max(lastRetire, retireAt);
                        --inflight;
                        issueLoop();
                    }));
                continue;
            }
            const auto aid = static_cast<std::size_t>(target->id());
            ++reserved[aid];
            submitBlocking(*target, jobs, nextJob++, issuing_core,
                           issueAt, 0, 0, stats,
                           [&, aid](const QstEntry&, Cycles retireAt) {
                               lastRetire =
                                   std::max(lastRetire, retireAt);
                               --inflight;
                               --reserved[aid];
                               issueLoop();
                           });
        }
    };

    issueLoop();
    armFaultDaemons();
    events_.run();
    simAssert(nextJob == jobs.size() && inflight == 0,
              "blocking run stalled: {}/{} issued, {} in flight",
              nextJob, jobs.size(), inflight);

    stats.maxInFlightObserved = inflightPeak;
    finishRun(stats, lastRetire);
    return stats;
}

QeiRunStats
QeiSystem::runBlockingMultiCore(const std::vector<QueryJob>& jobs,
                                int cores, const RoiProfile& profile)
{
    QeiRunStats stats;
    if (!beginRun(stats, jobs.size()))
        return stats;
    simAssert(cores > 0 && cores <= memory_.cores(),
              "{} issuing cores on a {}-core chip", cores,
              memory_.cores());

    const BlockingWindow window = blockingWindow(profile);
    // Unlike runBlocking: no mispredict term and no in-flight peak,
    // kept so existing multi-core results (abl_multicore) stay put.
    const double issueGap = window.fetchGap;

    // Per-issuing-core state: a private job stream, fetch clock, and
    // in-flight window; all cores share the accelerators and memory
    // system, which is where the contention shows up.
    struct CoreState
    {
        std::vector<std::size_t> jobIdxs;
        std::size_t next = 0;
        int inflight = 0;
        double fetchTime = 0.0;
    };
    std::vector<CoreState> coreState(static_cast<std::size_t>(cores));
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        coreState[j % static_cast<std::size_t>(cores)]
            .jobIdxs.push_back(j);
    }

    Cycles lastRetire = 0;
    // Dense per-accelerator reservation counters, as in runBlocking.
    std::vector<int> reserved(accels_.size(), 0);

    std::function<void(int)> issueLoop = [&](int core) {
        CoreState& cs = coreState[static_cast<std::size_t>(core)];
        while (cs.next < cs.jobIdxs.size() &&
               cs.inflight < window.maxInflight) {
            const std::size_t jobIdx = cs.jobIdxs[cs.next];
            const QueryJob& job = jobs[jobIdx];
            Accelerator& target = acceleratorFor(job.keyAddr, core);
            const auto aid = static_cast<std::size_t>(target.id());
            if (reserved[aid] >= target.params().qstEntries)
                break;

            cs.fetchTime = std::max(
                cs.fetchTime, static_cast<double>(events_.now()));
            cs.fetchTime += issueGap;
            stats.coreInstructions += window.instr;

            ++cs.inflight;
            ++reserved[aid];
            ++cs.next;
            submitBlocking(
                target, jobs, jobIdx, core,
                static_cast<Cycles>(cs.fetchTime), 0, 0, stats,
                [&, core, aid](const QstEntry&, Cycles retireAt) {
                    lastRetire = std::max(lastRetire, retireAt);
                    --coreState[static_cast<std::size_t>(core)]
                          .inflight;
                    --reserved[aid];
                    // A completion can unblock any core waiting on
                    // this accelerator's QST.
                    for (std::size_t c = 0; c < coreState.size(); ++c)
                        issueLoop(static_cast<int>(c));
                });
        }
    };

    for (int c = 0; c < cores; ++c)
        issueLoop(c);
    armFaultDaemons();
    events_.run();
    for (std::size_t c = 0; c < coreState.size(); ++c) {
        simAssert(coreState[c].next == coreState[c].jobIdxs.size() &&
                      coreState[c].inflight == 0,
                  "multi-core run stalled on core {}: {}/{} issued, "
                  "{} in flight",
                  c, coreState[c].next, coreState[c].jobIdxs.size(),
                  coreState[c].inflight);
    }

    finishRun(stats, lastRetire);
    return stats;
}

QeiRunStats
QeiSystem::runNonBlocking(const std::vector<QueryJob>& jobs,
                          int issuing_core, const RoiProfile& profile,
                          int poll_batch)
{
    // A batch of zero would issue nothing and poll forever.
    simAssert(poll_batch >= 1,
              "QUERY_NB poll batch must be at least 1 (got {})",
              poll_batch);
    QeiRunStats stats;
    if (!beginRun(stats, jobs.size()))
        return stats;

    // QUERY_NB retires as soon as the accelerator accepts it: the only
    // core-side costs are the issue slot and the polling loop.
    // Issue cost per query: the surrounding work plus ~2 instructions
    // (address setup + the store-like QUERY_NB).
    const std::uint32_t issueInstr = profile.nonQueryInstrPerOp + 2;
    const double issueGap =
        static_cast<double>(issueInstr) / chip_.core.issueWidth +
        profile.frontendStallPerInstr * issueInstr;
    // SNAPSHOT_READ poll: one wide load + mask test (Sec. IV-A).
    constexpr std::uint32_t kPollInstr = 4;
    constexpr Cycles kPollInterval = 50;

    std::size_t nextJob = 0;
    double fetchTime = 0.0;
    Cycles lastDone = 0;
    int inflight = 0;
    double inflightPeak = 0.0;
    std::size_t completedInBatch = 0;
    std::size_t batchTarget = 0;
    const RetireFn storeRetired = [&](const QstEntry&, Cycles retireAt) {
        lastDone = std::max(lastDone, retireAt);
        --inflight;
        ++completedInBatch;
    };

    // Hand job `jobIdx` to its accelerator; if the target QST is full
    // (software over-filled a hot instance), retry under bounded
    // exponential backoff — the paper notes an overflow "will prevent
    // the accelerator from accepting further query requests", and a
    // fixed short retry hammers a fault-shrunken table.
    static constexpr Cycles kBackoffBase = 4;
    static constexpr Cycles kBackoffCap = 64;
    std::function<void(std::size_t, Cycles, Cycles)> tryEnqueue =
        [&](std::size_t jobIdx, Cycles issueAt, Cycles backoff) {
            const QueryJob& j = jobs[jobIdx];
            Accelerator& target =
                acceleratorFor(j.keyAddr, issuing_core);
            if (!target.hasFreeSlot()) {
                backoffs_.inc();
                if (faults_ != nullptr)
                    faults_->onBackoff();
                events_.schedule(
                    backoff, [&tryEnqueue, jobIdx, issueAt, backoff] {
                        tryEnqueue(jobIdx, issueAt,
                                   std::min<Cycles>(backoff * 2,
                                                    kBackoffCap));
                    });
                return;
            }
            // The query retired at issue; the result is read by the
            // polling loop, whose cost is charged in aggregate below.
            const int slot = target.enqueue(
                j.headerAddr, j.keyAddr, j.resultAddr,
                QueryMode::NonBlocking, jobIdx,
                [&, issueAt](const QstEntry& raw) {
                    retireCompletion(raw, j, target, issuing_core,
                                     issueAt, 0, stats, storeRetired);
                });
            simAssert(slot >= 0, "enqueue failed with a free slot");
        };

    std::function<void()> issueBatch = [&]() {
        batchTarget = std::min<std::size_t>(
            static_cast<std::size_t>(poll_batch), jobs.size() - nextJob);
        completedInBatch = 0;
        if (batchTarget == 0)
            return;
        for (std::size_t k = 0; k < batchTarget; ++k) {
            const QueryJob& job = jobs[nextJob];
            // Planned core execution (see runBlocking). The
            // "non-blocking" query degenerates to a synchronous
            // software walk on the issuing core.
            Accelerator* target =
                plannerKeepsOnCore(job)
                    ? nullptr
                    : &acceleratorFor(job.keyAddr, issuing_core);

            fetchTime = std::max(
                fetchTime, static_cast<double>(events_.now()));
            fetchTime += issueGap;
            stats.coreInstructions += issueInstr;

            const Cycles issueAt = static_cast<Cycles>(fetchTime);
            const std::size_t jobIdx = nextJob;
            ++nextJob;
            ++inflight;
            inflightPeak =
                std::max(inflightPeak, static_cast<double>(inflight));
            if (target == nullptr) {
                fetchTime += static_cast<double>(
                    executeOnCore(job, jobIdx, QueryMode::NonBlocking,
                                  issueAt, 0, 0, false, stats,
                                  storeRetired));
                continue;
            }

            const Cycles submitAt =
                issueAt + submitLatency(issuing_core, *target, issueAt);
            events_.scheduleAt(submitAt, [&tryEnqueue, jobIdx,
                                          issueAt] {
                tryEnqueue(jobIdx, issueAt, kBackoffBase);
            });
        }
    };

    // Poll-and-refill loop: issue a batch, poll until it completes,
    // then issue the next.
    while (nextJob < jobs.size()) {
        issueBatch();
        armFaultDaemons();
        events_.run();
        simAssert(completedInBatch == batchTarget,
                  "non-blocking batch lost queries ({}/{})",
                  completedInBatch, batchTarget);
        // Polling cost: the software polled roughly every
        // kPollInterval cycles while the batch was in flight, and the
        // result only becomes visible at the first poll after
        // completion.
        const double batchSpan = std::max(
            0.0, static_cast<double>(lastDone) - fetchTime);
        const auto polls = static_cast<std::uint64_t>(
            batchSpan / kPollInterval + 1.0);
        stats.coreInstructions += polls * kPollInstr;
        fetchTime = std::max(fetchTime, static_cast<double>(lastDone)) +
                    static_cast<double>(kPollInstr) /
                        chip_.core.issueWidth;
    }

    stats.maxInFlightObserved = inflightPeak;
    finishRun(stats, std::max(lastDone, static_cast<Cycles>(fetchTime)));
    return stats;
}

QeiRunStats
QeiSystem::runBatched(const std::vector<QueryJob>& jobs,
                      int issuing_core, const RoiProfile& profile,
                      const BatchConfig& batch)
{
    QeiRunStats stats;
    if (!beginRun(stats, jobs.size()))
        return stats;
    simAssert(batch.enabled(),
              "runBatched needs a batch size > 1 (got {})", batch.size);

    // Planner partition: a QUERY_BATCH is planned as a unit, so
    // planner-kept queries never reach the reorderer — the class-level
    // verdict means whole batches either offload or stay on the core.
    // origIdx maps reorderer indices back to the original job vector
    // (identity when the planner keeps nothing).
    std::vector<std::size_t> coreJobs;
    std::vector<std::size_t> origIdx;
    std::vector<QueryJob> accelJobs;
    origIdx.reserve(jobs.size());
    accelJobs.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (plannerKeepsOnCore(jobs[i])) {
            coreJobs.push_back(i);
        } else {
            origIdx.push_back(i);
            accelJobs.push_back(jobs[i]);
        }
    }

    // The sequence-aware reorderer: group by target accelerator, sort
    // for locality, chunk, interleave.
    const Topology::RouteContext rctx = routeContext();
    const std::vector<PlannedBatch> plan = planQueryBatches(
        accelJobs, batch, [&](const QueryJob& j) {
            return topo_.route(j.keyAddr, issuing_core, rctx);
        });

    // QUERY_BATCH is store-like (like QUERY_NB): the descriptor
    // retires once accepted and software polls for the results, so the
    // core-side cost per batch is the surrounding work for its keys,
    // ~2 instructions of descriptor setup, and one store per key into
    // the descriptor's key vector.
    constexpr std::uint32_t kPollInstr = 4;
    constexpr Cycles kPollInterval = 50;

    double fetchTime = 0.0;
    Cycles lastDone = 0;
    std::size_t completedQueries = 0;
    std::size_t completedBatches = 0;
    // Results surface through the polling loop, charged in aggregate
    // below.
    const RetireFn storeRetired = [&](const QstEntry&, Cycles retireAt) {
        lastDone = std::max(lastDone, retireAt);
        ++completedQueries;
    };

    // Hand descriptor `planIdx` to its accelerator; one admission
    // decision covers the whole batch.
    auto admit = [&](std::size_t planIdx, Cycles issueAt) {
            const PlannedBatch& pb = plan[planIdx];
            Accelerator& target = accelerator(pb.accel);
            const int count = static_cast<int>(pb.jobIdxs.size());
            std::vector<Accelerator::BatchMember> members;
            members.reserve(pb.jobIdxs.size());
            for (std::size_t planIdx2 : pb.jobIdxs) {
                const std::size_t jobIdx = origIdx[planIdx2];
                const QueryJob& j = jobs[jobIdx];
                Accelerator::BatchMember m;
                m.headerAddr = j.headerAddr;
                m.keyAddr = j.keyAddr;
                m.resultAddr = j.resultAddr;
                m.queryId = jobIdx;
                m.onComplete = [&, issueAt](const QstEntry& raw) {
                    retireCompletion(raw, j, target, issuing_core,
                                     issueAt, 0, stats, storeRetired);
                };
                members.push_back(std::move(m));
            }
            const int bid = target.enqueueBatch(
                std::move(members), QueryMode::NonBlocking,
                batch.coalesce,
                [&completedBatches] { ++completedBatches; });
            simAssert(bid >= 0,
                      "enqueueBatch failed after canAcceptBatch");
            batchStats_->batches().inc();
            batchStats_->queries().inc(
                static_cast<std::uint64_t>(count));
        };

    // Per-accelerator FIFO admission: descriptors park in arrival
    // order and only the head of each queue retries (bounded-interval
    // polling). Independent per-descriptor backoff would have every
    // parked descriptor spinning for the whole run; head-only retry
    // keeps the admission traffic flat and the admission order
    // deterministic.
    constexpr Cycles kAdmitRetry = 8;
    struct PendingDesc
    {
        std::size_t planIdx;
        Cycles issueAt;
    };
    std::vector<std::vector<PendingDesc>> pending(accels_.size());
    std::vector<std::size_t> pendingHead(accels_.size(), 0);
    std::vector<std::uint8_t> retryArmed(accels_.size(), 0);
    std::function<void(std::size_t)> drainAdmissions =
        [&](std::size_t a) {
            auto& queue = pending[a];
            std::size_t& head = pendingHead[a];
            while (head < queue.size()) {
                const PendingDesc& d = queue[head];
                const int count = static_cast<int>(
                    plan[d.planIdx].jobIdxs.size());
                if (!accelerator(plan[d.planIdx].accel)
                         .canAcceptBatch(count)) {
                    batchStats_->backoffs().inc();
                    if (faults_ != nullptr)
                        faults_->onBackoff();
                    if (!retryArmed[a]) {
                        retryArmed[a] = 1;
                        events_.schedule(
                            kAdmitRetry, [&drainAdmissions,
                                          &retryArmed, a] {
                                retryArmed[a] = 0;
                                drainAdmissions(a);
                            });
                    }
                    return;
                }
                admit(d.planIdx, d.issueAt);
                ++head;
            }
        };

    // Planner-kept jobs run on the issuing core first (order is
    // immaterial: store-like semantics and an order-independent
    // checksum), each a synchronous software walk.
    for (const std::size_t jobIdx : coreJobs) {
        const std::uint32_t issueInstr = profile.nonQueryInstrPerOp + 1;
        fetchTime +=
            static_cast<double>(issueInstr) / chip_.core.issueWidth +
            profile.frontendStallPerInstr * issueInstr;
        stats.coreInstructions += issueInstr;
        const Cycles issueAt = static_cast<Cycles>(fetchTime);
        fetchTime += static_cast<double>(
            executeOnCore(jobs[jobIdx], jobIdx, QueryMode::NonBlocking,
                          issueAt, 0, 0, false, stats, storeRetired));
    }

    for (std::size_t p = 0; p < plan.size(); ++p) {
        const auto keys =
            static_cast<std::uint32_t>(plan[p].jobIdxs.size());
        const std::uint32_t issueInstr =
            keys * profile.nonQueryInstrPerOp + 2 + keys;
        fetchTime +=
            static_cast<double>(issueInstr) / chip_.core.issueWidth +
            profile.frontendStallPerInstr * issueInstr;
        stats.coreInstructions += issueInstr;

        const Cycles issueAt = static_cast<Cycles>(fetchTime);
        Accelerator& target = accelerator(plan[p].accel);
        // One NoC header for the whole descriptor; the key vector
        // streams behind it at one beat per key.
        const Cycles submitAt =
            issueAt + submitLatency(issuing_core, target, issueAt) +
            static_cast<Cycles>(keys - 1);
        const auto accelIdx = static_cast<std::size_t>(plan[p].accel);
        simAssert(accelIdx < accels_.size(),
                  "planned batch routed to bad accel {}", plan[p].accel);
        events_.scheduleAt(
            submitAt, [&pending, &drainAdmissions, accelIdx, p,
                       issueAt] {
                pending[accelIdx].push_back(PendingDesc{p, issueAt});
                drainAdmissions(accelIdx);
            });
    }

    armFaultDaemons();
    events_.run();
    simAssert(completedQueries == jobs.size(),
              "batched run lost queries ({}/{})", completedQueries,
              jobs.size());
    simAssert(completedBatches == plan.size(),
              "batched run lost descriptors ({}/{})", completedBatches,
              plan.size());

    // Aggregate SNAPSHOT_READ polling while results were outstanding.
    const double span =
        std::max(0.0, static_cast<double>(lastDone) - fetchTime);
    const auto polls =
        static_cast<std::uint64_t>(span / kPollInterval + 1.0);
    stats.coreInstructions += polls * kPollInstr;

    finishRun(stats, std::max(lastDone, static_cast<Cycles>(fetchTime)));
    return stats;
}

} // namespace qei
