#include "driver.hh"

#include <algorithm>
#include <deque>
#include <functional>

#include "common/logging.hh"

namespace qei {

void
TenantStats::regStats(StatsRegistry& registry)
{
    const std::string base = fullPath() + ".";
    registry.addCounter(base + "offered", offered_,
                        "arrivals belonging to this tenant");
    registry.addCounter(base + "admitted", admitted_,
                        "arrivals admitted for this tenant");
    registry.addCounter(base + "shed", shed_,
                        "arrivals shed for this tenant");
    registry.addCounter(base + "degraded", degraded_,
                        "shed queries degraded to the core path");
    registry.addHistogram(base + "sojourn", sojourn_,
                          "per-tenant sojourn (cycles)");
    registry.addScalar(base + "occupancy", occupancy_,
                       "QST slots held by this tenant, sampled at "
                       "issue");
}

void
DriverMetrics::regStats(StatsRegistry& registry)
{
    const std::string base = fullPath() + ".";
    registry.addHistogram(base + "sojourn", sojourn_,
                          "arrival-to-retire latency per query "
                          "(cycles)");
    registry.addHistogram(base + "queue_wait", queueWait_,
                          "software queueing delay before issue "
                          "(cycles)");
    registry.addHistogram(base + "service", service_,
                          "issue-to-retire latency per query "
                          "(cycles)");
    // Registered only once a serving run degraded work through it, so
    // stats dumps of every historical path keep their exact shape.
    if (degradedSojourn_.scalar().count() > 0) {
        registry.addHistogram(base + "degraded_sojourn",
                              degradedSojourn_,
                              "sojourn of shed-and-degraded queries "
                              "(cycles)");
    }
}

void
DriverMetrics::ensureTenants(int count)
{
    while (tenantCount() < count) {
        const int id = tenantCount();
        tenants_.push_back(std::make_unique<TenantStats>());
        // Dotted leaf names put the children at
        // system.driver.tenant.<id>.* in the stats tree.
        adopt(*tenants_.back(), "tenant." + std::to_string(id));
    }
}

LatencyDigest
DriverMetrics::digest(const Histogram& h)
{
    LatencyDigest d;
    d.count = h.scalar().count();
    d.mean = h.scalar().mean();
    d.max = h.scalar().max();
    d.p50 = h.percentile(0.50);
    d.p99 = h.percentile(0.99);
    d.p999 = h.percentile(0.999);
    return d;
}

QeiRunStats
Driver::run(const std::vector<QueryJob>& jobs,
            const RoiProfile& profile)
{
    QeiRunStats stats;
    const bool closed =
        config_.traffic == nullptr || config_.traffic->closedLoop();
    simAssert(!config_.admission.active() ||
                  (!closed && !config_.batch.enabled()),
              "admission control sits between an open-loop traffic "
              "source and the system; closed-loop and QUERY_BATCH "
              "runs have no arrival queue to shed from");
    simAssert(closed || config_.mode == QueryMode::Blocking,
              "QUERY_NB requires a closed-loop source: the serving loop "
              "issues load-like QUERY_B and has no poll-batch model, so "
              "an open-loop QUERY_NB run would silently run as QUERY_B");
    if (config_.batch.enabled()) {
        simAssert(closed,
                  "QUERY_BATCH requires a closed-loop source: the "
                  "reorderer batches a pending backlog, which an "
                  "open-loop arrival timeline does not provide");
        stats = system_.runBatched(jobs, config_.core, profile,
                                   config_.batch);
    } else if (closed) {
        // The legacy loops ARE the closed-loop semantics; delegating
        // keeps every pre-traffic-layer result bit-identical.
        if (config_.mode == QueryMode::Blocking) {
            stats = system_.runBlocking(jobs, config_.core, profile);
        } else {
            stats = system_.runNonBlocking(jobs, config_.core, profile,
                                           config_.pollBatch);
        }
    } else {
        stats = runServing(jobs, profile,
                           config_.traffic->schedule(jobs.size()));
    }
    const DriverMetrics& m = *system_.driverStats_;
    stats.sojourn = DriverMetrics::digest(m.sojourn());
    stats.queueWait = DriverMetrics::digest(m.queueWait());
    stats.service = DriverMetrics::digest(m.service());
    return stats;
}

QeiRunStats
Driver::runServing(const std::vector<QueryJob>& jobs,
                   const RoiProfile& profile,
                   const std::vector<traffic::Arrival>& arrivals)
{
    QeiRunStats stats;
    if (!system_.beginRun(stats, jobs.size()))
        return stats;
    simAssert(arrivals.size() == jobs.size(),
              "traffic source scheduled {} arrivals for {} jobs",
              arrivals.size(), jobs.size());

    int tenants = 1;
    for (const traffic::Arrival& a : arrivals)
        tenants = std::max(tenants, a.tenant + 1);
    const TenantQuota& quota = config_.topology.params().tenantQuota;
    // Tenant and admission accounting is opt-in: a plain single-tenant
    // open-loop run publishes none of it, so its stats tree and
    // artifacts keep their historical shape.
    const bool reportTenants =
        config_.admission.active() || tenants > 1 || quota.active();
    if (reportTenants)
        system_.driverStats_->ensureTenants(tenants);

    AdmissionController* admission = system_.admission_;
    const bool degrade = admission != nullptr &&
                         admission->config().degradeToCore;
    simAssert(!degrade || system_.fallbackTraces_ != nullptr,
              "shed-to-core degradation needs the software fallback "
              "view of the jobs (setSoftwareFallback)");

    EventQueue& events = system_.events_;
    const int core = config_.core;
    const bool quotaOn = quota.active() && tenants > 1;
    const QeiSystem::BlockingWindow window =
        system_.blockingWindow(profile);

    struct Pending
    {
        std::size_t jobIdx;
        Cycles arrivedAt;
    };
    // One FIFO per tenant; a blocked head stalls only its own tenant.
    std::vector<std::deque<Pending>> pend(
        static_cast<std::size_t>(tenants));
    std::size_t pendingTotal = 0;
    std::size_t issued = 0;
    std::uint64_t shedCount = 0;
    std::uint64_t admittedChecksum = 0;
    int inflight = 0;
    int degradedInFlight = 0;
    double fetchTime = 0.0;
    Cycles lastRetire = 0;
    Cycles lastDegradedRetire = 0;
    // Degraded work serializes on one background core model.
    Cycles degradeClock = 0;
    double inflightPeak = 0.0;
    const std::size_t nAccels = system_.accels_.size();
    std::vector<int> reserved(nAccels, 0);
    std::vector<int> reservedTenant(
        nAccels * static_cast<std::size_t>(tenants), 0);
    std::vector<int> tenantInflight(
        static_cast<std::size_t>(tenants), 0);
    // Guaranteed QST slots per (accelerator, tenant) under the quota.
    std::vector<int> guaranteed(
        nAccels * static_cast<std::size_t>(tenants), 0);
    for (std::size_t aid = 0; aid < nAccels; ++aid) {
        const int cap = system_.accels_[aid]->params().qstEntries;
        for (int t = 0; t < tenants; ++t)
            guaranteed[aid * static_cast<std::size_t>(tenants) +
                       static_cast<std::size_t>(t)] =
                tenantGuaranteedSlots(quota, cap, t, tenants);
    }
    int rrCursor = 0;

    std::function<void()> pump;

    // Issue tenant t's head-of-queue query if capacity (and, in the
    // guaranteed pass, its quota share) allows. Returns true on issue.
    auto tryIssue = [&](int t, bool allowBorrow) -> bool {
        auto& q = pend[static_cast<std::size_t>(t)];
        if (q.empty() || inflight >= window.maxInflight)
            return false;
        const Pending head = q.front();
        const QueryJob& job = jobs[head.jobIdx];
        Accelerator& target =
            system_.acceleratorFor(job.keyAddr, core);
        const auto aid = static_cast<std::size_t>(target.id());
        if (reserved[aid] >= target.params().qstEntries)
            return false; // software waits for a slot
        const std::size_t slotIdx =
            aid * static_cast<std::size_t>(tenants) +
            static_cast<std::size_t>(t);
        if (quotaOn && reservedTenant[slotIdx] >= guaranteed[slotIdx]) {
            // Hard partitions never exceed their share; Weighted
            // shares borrow idle capacity, but only in the
            // work-conserving borrow pass (after every tenant's
            // guaranteed share had its chance).
            if (quota.share == TenantShare::Hard || !allowBorrow)
                return false;
        }

        fetchTime = std::max(fetchTime,
                             static_cast<double>(events.now()));
        fetchTime += window.issueGap;
        stats.coreInstructions += window.instr;

        const Cycles issueAt = static_cast<Cycles>(fetchTime);
        const Cycles queueWait =
            issueAt > head.arrivedAt ? issueAt - head.arrivedAt : 0;

        q.pop_front();
        --pendingTotal;
        ++issued;
        ++inflight;
        ++reserved[aid];
        ++reservedTenant[slotIdx];
        ++tenantInflight[static_cast<std::size_t>(t)];
        inflightPeak =
            std::max(inflightPeak, static_cast<double>(inflight));
        if (TenantStats* ts = system_.driverStats_->tenantStats(t))
            ts->occupancy().sample(static_cast<double>(
                tenantInflight[static_cast<std::size_t>(t)]));

        system_.submitBlocking(
            target, jobs, head.jobIdx, core, issueAt, queueWait, t,
            stats,
            [&, t, aid, slotIdx, issueAt, queueWait](
                const QstEntry& entry, Cycles retireAt) {
                lastRetire = std::max(lastRetire, retireAt);
                admittedChecksum ^= QeiSystem::resultDigest(entry);
                if (admission != nullptr) {
                    // Admitted completions only: degraded work must
                    // not steer the Adaptive window, so the admission
                    // decision stream is identical whether shed
                    // queries are dropped or degraded.
                    admission->onAdmittedCompletion(static_cast<double>(
                        queueWait + (retireAt - issueAt)));
                }
                --inflight;
                --reserved[aid];
                --reservedTenant[slotIdx];
                --tenantInflight[static_cast<std::size_t>(t)];
                pump();
            });
        return true;
    };

    // Two-pass issue: a round-robin guaranteed pass (every tenant up
    // to its quota share), then — only when that pass stalls — one
    // work-conserving borrow (Weighted / no-quota tenants may exceed
    // their share on idle capacity). Hard shares never borrow.
    pump = [&]() {
        while (true) {
            bool progress = false;
            for (int i = 0; i < tenants; ++i) {
                const int t = (rrCursor + i) % tenants;
                if (tryIssue(t, false)) {
                    progress = true;
                    rrCursor = (t + 1) % tenants;
                }
            }
            if (!progress && quotaOn &&
                quota.share != TenantShare::Hard) {
                for (int i = 0; i < tenants; ++i) {
                    const int t = (rrCursor + i) % tenants;
                    if (tryIssue(t, true)) {
                        progress = true;
                        rrCursor = (t + 1) % tenants;
                        break;
                    }
                }
            }
            if (!progress)
                break;
        }
    };

    // Arrival timeline: each arrival passes the admission layer, then
    // either joins its tenant's FIFO, degrades to the core path, or is
    // dropped. The schedule must name every job exactly once.
    std::vector<bool> scheduled(jobs.size(), false);
    events.reserve(events.pending() + arrivals.size());
    for (const traffic::Arrival& a : arrivals) {
        simAssert(a.queryIndex < jobs.size(),
                  "arrival references job {} of {}", a.queryIndex,
                  jobs.size());
        simAssert(!scheduled[a.queryIndex],
                  "arrival schedule names job {} twice", a.queryIndex);
        scheduled[a.queryIndex] = true;
        simAssert(a.tenant >= 0 && a.tenant < tenants,
                  "arrival tenant {} outside [0, {})", a.tenant,
                  tenants);
        events.scheduleAt(a.tick, [this, &jobs, &pend,
                                   &pendingTotal, &pump, &stats,
                                   &shedCount, &degradedInFlight,
                                   &degradeClock, &lastDegradedRetire,
                                   admission, degrade, a]() {
            // Null unless this run publishes tenant accounting.
            TenantStats* ts =
                system_.driverStats_->tenantStats(a.tenant);
            if (ts != nullptr)
                ts->offered().inc();
            const bool admit =
                admission == nullptr ||
                admission->decide(a.tenant, a.tick, pendingTotal);
            if (admit) {
                if (ts != nullptr)
                    ts->admitted().inc();
                pend[static_cast<std::size_t>(a.tenant)].push_back(
                    Pending{a.queryIndex, a.tick});
                ++pendingTotal;
                pump();
                return;
            }
            ts->shed().inc();
            ++shedCount;
            ++stats.sheddedQueries;
            // Shedding IS forward progress: a long shed interval must
            // not trip the no-retire watchdog.
            system_.watchdog_->noteProgress();
            if (!degrade)
                return;
            admission->onDegraded();
            ts->degraded().inc();
            ++stats.degradedQueries;
            const Cycles start = std::max(degradeClock, a.tick);
            ++degradedInFlight;
            degradeClock =
                start +
                system_.executeOnCore(
                    jobs[a.queryIndex], a.queryIndex,
                    QueryMode::Blocking, start, start - a.tick, a.tenant,
                    /*degraded=*/true, stats,
                    [&](const QstEntry&, Cycles retireAt) {
                        lastDegradedRetire =
                            std::max(lastDegradedRetire, retireAt);
                        --degradedInFlight;
                    });
        });
    }

    system_.armFaultDaemons();
    events.run();
    std::size_t stillPending = 0;
    for (const auto& q : pend)
        stillPending += q.size();
    simAssert(issued + shedCount == jobs.size() && inflight == 0 &&
                  stillPending == 0 && pendingTotal == 0 &&
                  degradedInFlight == 0,
              "serving run stalled: {} issued + {} shed of {}, {} in "
              "flight, {} queued, {} degrading",
              issued, shedCount, jobs.size(), inflight, stillPending,
              degradedInFlight);

    stats.maxInFlightObserved = inflightPeak;
    system_.finishRun(stats, std::max(lastRetire, lastDegradedRetire));
    if (!reportTenants)
        return stats;

    stats.admittedQueries = issued;
    stats.admittedChecksum = admittedChecksum;
    stats.tenants.reserve(static_cast<std::size_t>(tenants));
    for (int t = 0; t < tenants; ++t) {
        TenantStats* ts = system_.driverStats_->tenantStats(t);
        QeiRunStats::TenantSummary s;
        s.tenant = t;
        s.offered = ts->offered().value();
        s.admitted = ts->admitted().value();
        s.shed = ts->shed().value();
        s.degraded = ts->degraded().value();
        const LatencyDigest d = DriverMetrics::digest(ts->sojourn());
        s.sojournP50 = d.p50;
        s.sojournP99 = d.p99;
        s.sojournMean = d.mean;
        s.occupancyMean = ts->occupancy().mean();
        stats.tenants.push_back(s);
    }
    return stats;
}

} // namespace qei
