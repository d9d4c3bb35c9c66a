/**
 * Ablation — cost-model-driven offload planner. The paper picks one
 * integration scheme per deployment and sticks with it; this harness
 * asks what a submit-time planner buys when it can consult the
 * calibrated cost model (perf/cost_model.json, baked into
 * CostModel::builtin()) and choose per query.
 *
 * Three sections:
 *  (a) per-workload: every canonical static scheme vs. the planner's
 *      cost-mode deployment. The planner must match the best static
 *      scheme on every workload — it deploys that scheme's canonical
 *      topology, so the run is cycle-identical, and the gate pins
 *      exactly that (ratio 1.0 within tolerance, checksums equal).
 *  (b) mixed trace: dpdk (cuckoo FIB, best on CHA-TLB) and flann
 *      (probe tables, best on Core-integrated) interleaved 1:1 in one
 *      World. A static deployment serves both classes with one
 *      scheme; the planner's heterogeneous union routes each class to
 *      its own best family, so it must beat *every* static scheme —
 *      the case where per-query planning is strictly better.
 *  (c) sharding: the planner's key-space-sharded deployments (1 and 8
 *      shards, work stealing on/off, plus a QUERY_BATCH cell) must be
 *      result-identical to the canonical single deployment
 *      (order-independent result_checksum).
 *
 * Usage: abl_planner [queries] — the optional positional argument
 * caps queries per workload (CI smoke runs use a reduced count).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"

using namespace qei;
using namespace qei::bench;

namespace {

using validate::Expectation;
using validate::Relation;

const std::vector<std::string> kWorkloads{"dpdk", "jvm", "rocksdb",
                                          "snort", "flann"};

/** One experiment cell; every cell builds its own World. */
struct CellSpec
{
    enum class Kind {
        Static,       ///< canonical scheme on one workload
        PlannerCost,  ///< planner cost-mode deployment on one workload
        MixedStatic,  ///< canonical scheme on the dpdk+flann trace
        MixedPlanner, ///< planner heterogeneous union on that trace
        Shard,        ///< planner sharded deployment (dpdk)
    };
    Kind kind;
    std::size_t workloadIdx = 0; ///< into makeWorkloadFactories()
    std::size_t schemeIdx = 0;   ///< into Topology::allPaper()
    int shards = 1;
    bool steal = false;
    int batch = 1; ///< QUERY_BATCH size for shard cells (1 = scalar)
};

struct CellResult
{
    std::string label;
    QeiRunStats stats;
};

/** dpdk and flann interleaved 1:1 in one World, plus the key-space
 *  class ranges the planner partitions on. Traces stay index-aligned
 *  with jobs so queryId-based fallback lookups keep working. */
Prepared
prepareMixed(World& world, std::size_t queries_per_class,
             std::vector<ClassRange>* classes_out)
{
    const auto factories = makeWorkloadFactories();
    auto dpdk = factories[0]();
    auto flann = factories[4]();
    dpdk->build(world);
    flann->build(world);
    Prepared a = dpdk->prepare(world, queries_per_class);
    Prepared b = flann->prepare(world, queries_per_class);

    auto rangeOf = [](const Prepared& p, const std::string& name) {
        Addr lo = ~Addr{0};
        Addr hi = 0;
        for (const QueryJob& j : p.jobs) {
            lo = std::min(lo, j.keyAddr);
            hi = std::max(hi, j.keyAddr);
        }
        return ClassRange{lo, hi + 1, name};
    };
    if (classes_out)
        *classes_out = {rangeOf(a, "dpdk"), rangeOf(b, "flann")};

    Prepared mixed;
    mixed.profile = a.profile; // one profile for every compared run
    const std::size_t n = std::min(a.jobs.size(), b.jobs.size());
    mixed.jobs.reserve(2 * n);
    mixed.traces.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
        mixed.jobs.push_back(a.jobs[i]);
        mixed.traces.push_back(a.traces[i]);
        mixed.jobs.push_back(b.jobs[i]);
        mixed.traces.push_back(b.traces[i]);
    }
    return mixed;
}

/** Paper-style expectations; bands calibrated on the default query
 *  counts (seed in main). */
validate::Suite
paperExpectations()
{
    validate::Suite suite;
    suite.title = "Ablation — cost-model-driven offload planner";
    suite.preamble =
        "No paper counterpart: QEI deploys one integration scheme and "
        "keeps it, so these gates are self-anchored. They assert what "
        "a submit-time planner must deliver to earn its place: never "
        "lose to the best static scheme on any single workload (its "
        "cost-mode deployment is that scheme, cycle-identical), beat "
        "every static scheme on a mixed dpdk+flann trace where no "
        "single scheme is best for both classes, and keep sharded "
        "deployments result-identical to the single deployment "
        "(order-independent result_checksum).";
    const std::string kSelfAnchored =
        "self-anchored: asserts planner shape, no paper band";

    // (a) Planner >= best static on every workload. The deployment is
    // the best family's canonical topology, so the ratio is exactly
    // 1.0 — the band is tight on purpose.
    for (const std::string& w : kWorkloads) {
        suite.expectations.push_back(Expectation::range(
            w + "-planner-matches-best", "Sec. IV (ext.)",
            w + " planner cost-mode matches the best static scheme",
            w + "_summary.planner_vs_best_static", "x", 0.995, 1.05,
            0.004, kSelfAnchored));
        suite.expectations.push_back(Expectation::exact(
            w + "-planner-checksum", "Sec. IV (ext.)",
            w + " planner results bit-identical to the static run",
            w + "_summary.planner_checksum_matches", "bool", 1.0,
            kSelfAnchored));
        suite.expectations.push_back(Expectation::exact(
            w + "-no-mismatches", "Sec. IV",
            w + " functional correctness across every deployment",
            w + "_summary.mismatches", "queries", 0.0, kSelfAnchored));
        suite.expectations.push_back(Expectation::exact(
            w + "-planner-consulted", "Sec. IV (ext.)",
            w + " planner consulted once per query, kept none on core",
            w + "_summary.planner_consulted", "bool", 1.0,
            kSelfAnchored));
    }

    // (b) Mixed trace: strictly better than every static scheme. The
    // win is structural but small — flann's Core-integrated edge over
    // CHA-TLB is a few percent of the blended cycles/query — so the
    // lo edge sits just above parity and the gate is the strictness
    // bit, not the magnitude.
    suite.expectations.push_back(Expectation::range(
        "mixed-planner-gain", "Sec. IV (ext.)",
        "mixed dpdk+flann: planner union vs best static scheme",
        "mixed_summary.planner_vs_best_static", "x", 1.0005, 1.5, 0.0,
        kSelfAnchored));
    suite.expectations.push_back(Expectation::exact(
        "mixed-planner-beats-every-static", "Sec. IV (ext.)",
        "mixed trace: planner union beats all five static schemes",
        "mixed_summary.planner_beats_all", "bool", 1.0,
        kSelfAnchored));
    suite.expectations.push_back(Expectation::exact(
        "mixed-checksums", "Sec. IV",
        "mixed trace: identical results across every deployment",
        "mixed_summary.checksum_matches_all", "bool", 1.0,
        kSelfAnchored));

    // (c) Sharding is a routing change, not a semantic one.
    suite.expectations.push_back(Expectation::exact(
        "shard-checksum-identity", "Sec. IV (ext.)",
        "sharded deployments (1/8 shards, +-steal, batched) "
        "result-identical to the single canonical deployment",
        "shard_summary.checksum_matches_all", "bool", 1.0,
        kSelfAnchored));
    suite.expectations.push_back(Expectation::range(
        "shard8-vs-shard1", "Sec. IV (ext.)",
        "8 shards vs 1 shard under non-blocking issue (routing "
        "overhead stays bounded)",
        "shard_summary.shard8_vs_shard1", "x", 0.8, 3.0, 0.10,
        kSelfAnchored));
    return suite;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options = parseBenchArgs(argc, argv);
    BenchReport report("abl_planner", options);
    std::printf(
        "=== Ablation: cost-model-driven offload planner ===\n");

    const std::uint64_t kSeed = 42;
    const std::vector<std::size_t> queryCounts{
        options.capped(1536), // dpdk
        options.capped(1024), // jvm
        options.capped(512),  // rocksdb
        options.capped(256),  // snort
        options.capped(512),  // flann
    };
    const std::size_t mixedPerClass = options.capped(512);

    const std::vector<Topology> schemes = Topology::allPaper();

    // Cell list: (a) workload x (5 static + planner), (b) mixed x
    // (5 static + planner union), (c) dpdk shard variants.
    std::vector<CellSpec> specs;
    for (std::size_t w = 0; w < kWorkloads.size(); ++w) {
        for (std::size_t s = 0; s < schemes.size(); ++s)
            specs.push_back({CellSpec::Kind::Static, w, s});
        specs.push_back({CellSpec::Kind::PlannerCost, w});
    }
    const std::size_t mixedFirst = specs.size();
    for (std::size_t s = 0; s < schemes.size(); ++s)
        specs.push_back({CellSpec::Kind::MixedStatic, 0, s});
    specs.push_back({CellSpec::Kind::MixedPlanner});
    const std::size_t shardFirst = specs.size();
    specs.push_back({CellSpec::Kind::Shard, 0, 0, 1, true});
    specs.push_back({CellSpec::Kind::Shard, 0, 0, 8, true});
    specs.push_back({CellSpec::Kind::Shard, 0, 0, 8, false});
    specs.push_back({CellSpec::Kind::Shard, 0, 0, 8, true, 8});

    // Every cell builds its own World from the same seed, so results
    // are bit-identical at any --threads setting.
    auto sweep = parallelMap(
        options.threads, specs.size(),
        [&](std::size_t c) -> CellResult {
            const CellSpec& spec = specs[c];
            World world(kSeed);
            Prepared prep;
            std::vector<ClassRange> classes;
            if (spec.kind == CellSpec::Kind::MixedStatic ||
                spec.kind == CellSpec::Kind::MixedPlanner) {
                prep = prepareMixed(world, mixedPerClass, &classes);
            } else {
                auto workload =
                    makeWorkloadFactories()[spec.workloadIdx]();
                workload->build(world);
                prep = workload->prepare(
                    world, queryCounts[spec.workloadIdx]);
            }
            CellResult out;
            DriverConfig config;
            switch (spec.kind) {
              case CellSpec::Kind::Static:
                config = DriverConfig(schemes[spec.schemeIdx]);
                out.label = kWorkloads[spec.workloadIdx] + "/" +
                            schemes[spec.schemeIdx].name();
                break;
              case CellSpec::Kind::PlannerCost: {
                const PlannerConfig cfg = PlannerConfig::cost(
                    kWorkloads[spec.workloadIdx]);
                config = DriverConfig(plannerTopology(cfg))
                             .withPlanner(cfg);
                out.label =
                    kWorkloads[spec.workloadIdx] + "/planner-cost";
                break;
              }
              case CellSpec::Kind::MixedStatic:
                config = DriverConfig(schemes[spec.schemeIdx]);
                out.label =
                    "mixed/" + schemes[spec.schemeIdx].name();
                break;
              case CellSpec::Kind::MixedPlanner: {
                const PlannerConfig cfg =
                    PlannerConfig::mixed(classes);
                config = DriverConfig(plannerTopology(cfg))
                             .withPlanner(cfg);
                out.label = "mixed/planner-mix";
                break;
              }
              case CellSpec::Kind::Shard: {
                const PlannerConfig cfg = PlannerConfig::shard(
                    "dpdk", spec.shards, spec.steal);
                config = DriverConfig(plannerTopology(cfg))
                             .withPlanner(cfg)
                             .withMode(QueryMode::NonBlocking);
                if (spec.batch > 1) {
                    config.withBatch(BatchConfig{
                        spec.batch, BatchReorder::ByKeyLocality,
                        true});
                }
                out.label = "dpdk/" + config.topology.name() +
                            (spec.batch > 1 ? "+batch8" : "");
                break;
              }
            }
            config.withLabel(out.label);
            out.stats = runQei(world, prep, config);
            return out;
        });

    TablePrinter table;
    table.header({"section", "cell", "cyc/query", "vs best static",
                  "decisions", "checksum"});

    // -- (a) per-workload static vs planner --
    const std::size_t perWorkload = schemes.size() + 1;
    for (std::size_t w = 0; w < kWorkloads.size(); ++w) {
        const std::size_t base = w * perWorkload;
        Cycles bestStatic = 0;
        std::string bestName;
        std::uint64_t mismatches = 0;
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            const QeiRunStats& st = sweep[base + s].stats;
            mismatches += st.mismatches;
            if (bestStatic == 0 || st.cycles < bestStatic) {
                bestStatic = st.cycles;
                bestName = schemes[s].name();
            }
        }
        const QeiRunStats& planner =
            sweep[base + schemes.size()].stats;
        mismatches += planner.mismatches;
        const QeiRunStats& bestRun =
            sweep[base +
                  static_cast<std::size_t>(
                      std::find_if(schemes.begin(), schemes.end(),
                                   [&](const Topology& t) {
                                       return t.name() == bestName;
                                   }) -
                      schemes.begin())]
                .stats;
        const double ratio =
            planner.cycles
                ? static_cast<double>(bestStatic) /
                      static_cast<double>(planner.cycles)
                : 0.0;
        const bool checksumOk =
            planner.resultChecksum == bestRun.resultChecksum;
        const bool consulted =
            planner.plannerDecisions == planner.queries &&
            planner.plannerCoreExecutes == 0;

        Json points = Json::array();
        for (std::size_t s = 0; s <= schemes.size(); ++s) {
            const QeiRunStats& st = sweep[base + s].stats;
            const std::string name = s < schemes.size()
                                         ? schemes[s].name()
                                         : "planner-cost";
            table.row(
                {kWorkloads[w], name,
                 TablePrinter::num(st.cyclesPerQuery()),
                 TablePrinter::num(
                     st.cycles ? static_cast<double>(bestStatic) /
                                     static_cast<double>(st.cycles)
                               : 0.0),
                 std::to_string(st.plannerDecisions),
                 st.resultChecksum == bestRun.resultChecksum
                     ? "ok"
                     : "MISMATCH"});
            Json p = Json::object();
            p["scheme"] = name;
            p["cycles"] = st.cycles;
            p["cycles_per_query"] = st.cyclesPerQuery();
            p["planner_decisions"] = st.plannerDecisions;
            p["planner_core_executes"] = st.plannerCoreExecutes;
            points.push_back(std::move(p));
        }
        report.data()[kWorkloads[w]] = std::move(points);
        Json summary = Json::object();
        summary["best_static"] = bestName;
        summary["best_static_cycles_per_query"] =
            bestRun.cyclesPerQuery();
        summary["planner_vs_best_static"] = ratio;
        summary["planner_checksum_matches"] = checksumOk ? 1 : 0;
        summary["planner_consulted"] = consulted ? 1 : 0;
        summary["mismatches"] = mismatches;
        report.data()[kWorkloads[w] + "_summary"] = std::move(summary);
    }

    // -- (b) mixed dpdk+flann trace --
    {
        const QeiRunStats& planner =
            sweep[mixedFirst + schemes.size()].stats;
        Cycles bestStatic = 0;
        std::string bestName;
        bool beatsAll = true;
        bool checksumsMatch = true;
        Json points = Json::array();
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            const QeiRunStats& st = sweep[mixedFirst + s].stats;
            if (bestStatic == 0 || st.cycles < bestStatic) {
                bestStatic = st.cycles;
                bestName = schemes[s].name();
            }
            beatsAll = beatsAll && planner.cycles < st.cycles;
            checksumsMatch = checksumsMatch &&
                             st.resultChecksum ==
                                 planner.resultChecksum;
        }
        for (std::size_t s = 0; s <= schemes.size(); ++s) {
            const QeiRunStats& st = sweep[mixedFirst + s].stats;
            const std::string name = s < schemes.size()
                                         ? schemes[s].name()
                                         : "planner-mix";
            table.row(
                {"mixed", name,
                 TablePrinter::num(st.cyclesPerQuery()),
                 TablePrinter::num(
                     st.cycles ? static_cast<double>(bestStatic) /
                                     static_cast<double>(st.cycles)
                               : 0.0),
                 std::to_string(st.plannerDecisions),
                 st.resultChecksum == planner.resultChecksum
                     ? "ok"
                     : "MISMATCH"});
            Json p = Json::object();
            p["scheme"] = name;
            p["cycles"] = st.cycles;
            p["cycles_per_query"] = st.cyclesPerQuery();
            p["planner_decisions"] = st.plannerDecisions;
            points.push_back(std::move(p));
        }
        report.data()["mixed"] = std::move(points);
        Json summary = Json::object();
        summary["best_static"] = bestName;
        summary["planner_vs_best_static"] =
            planner.cycles ? static_cast<double>(bestStatic) /
                                 static_cast<double>(planner.cycles)
                           : 0.0;
        summary["planner_beats_all"] = beatsAll ? 1 : 0;
        summary["checksum_matches_all"] = checksumsMatch ? 1 : 0;
        report.data()["mixed_summary"] = std::move(summary);
    }

    // -- (c) sharded deployments --
    {
        // Reference results: section (a)'s dpdk CHA-TLB cell (same
        // seed and query count, canonical single-family deployment).
        const QeiRunStats& canonical = sweep[0].stats;
        bool checksumsMatch = true;
        Json points = Json::array();
        for (std::size_t i = shardFirst; i < specs.size(); ++i) {
            const QeiRunStats& st = sweep[i].stats;
            const bool ok =
                st.resultChecksum == canonical.resultChecksum;
            checksumsMatch = checksumsMatch && ok;
            table.row({"shard", sweep[i].label,
                       TablePrinter::num(st.cyclesPerQuery()), "-",
                       std::to_string(st.plannerDecisions),
                       ok ? "ok" : "MISMATCH"});
            Json p = Json::object();
            p["cell"] = sweep[i].label;
            p["shards"] = specs[i].shards;
            p["steal"] = specs[i].steal ? 1 : 0;
            p["batch"] = specs[i].batch;
            p["cycles"] = st.cycles;
            p["cycles_per_query"] = st.cyclesPerQuery();
            p["qst_backoffs"] = st.qstBackoffs;
            p["checksum_matches_canonical"] = ok ? 1 : 0;
            points.push_back(std::move(p));
        }
        report.data()["shard"] = std::move(points);
        const QeiRunStats& shard1 = sweep[shardFirst].stats;
        const QeiRunStats& shard8 = sweep[shardFirst + 1].stats;
        Json summary = Json::object();
        summary["checksum_matches_all"] = checksumsMatch ? 1 : 0;
        summary["shard8_vs_shard1"] =
            shard8.cycles ? static_cast<double>(shard1.cycles) /
                                static_cast<double>(shard8.cycles)
                          : 0.0;
        report.data()["shard_summary"] = std::move(summary);
    }

    table.print();
    std::printf(
        "planner: on a homogeneous trace the cost model picks the "
        "best static scheme (the planner can only tie); on the mixed "
        "trace the heterogeneous union routes each class to its own "
        "best family, which no static scheme can match — and sharding "
        "never changes answers, only placement\n");

    report.setTable(table);
    report.setValidation(paperExpectations());
    return report.finish() ? 0 : 1;
}
