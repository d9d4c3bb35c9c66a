/**
 * Tests for the qei::validate paper-fidelity subsystem: metric path
 * resolution, band/ordering/shape evaluation with their tolerance
 * edges, artifact embedding, and byte-stable EXPERIMENTS.md
 * regeneration.
 */

#include <gtest/gtest.h>

#include "common/json.hh"
#include "validate/expectation.hh"
#include "validate/experiments.hh"

using namespace qei;
using namespace qei::validate;

namespace {

/** Minimal artifact shaped like a BenchReport payload. */
Json
fixtureArtifact()
{
    Json root = Json::object();
    root["bench"] = "fig07_speedup";
    root["schema_version"] = 3;
    Json workloads = Json::array();
    for (const auto& [name, fast, slow] :
         {std::tuple{"dpdk", 10.5, 1.0},
          std::tuple{"rocksdb", 2.5, 0.4}}) {
        Json w = Json::object();
        w["workload"] = name;
        Json schemes = Json::object();
        Json a = Json::object();
        a["speedup"] = fast;
        schemes["CHA-TLB"] = std::move(a);
        Json b = Json::object();
        b["speedup"] = slow;
        schemes["Device-indirect"] = std::move(b);
        w["schemes"] = std::move(schemes);
        workloads.push_back(std::move(w));
    }
    root["workloads"] = std::move(workloads);
    root["geomean"] = 4.5;
    return root;
}

TEST(JsonResolve, DottedPathAndSelectors)
{
    const Json root = fixtureArtifact();
    const Json* node = root.resolve("geomean");
    ASSERT_NE(node, nullptr);
    EXPECT_DOUBLE_EQ(node->asDouble(), 4.5);

    node = root.resolve(
        "workloads.[workload=rocksdb].schemes.CHA-TLB.speedup");
    ASSERT_NE(node, nullptr);
    EXPECT_DOUBLE_EQ(node->asDouble(), 2.5);

    // Positional index into the array.
    node = root.resolve("workloads.[1].workload");
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->asString(), "rocksdb");

    // Failures resolve to nullptr, never throw.
    EXPECT_EQ(root.resolve("workloads.[workload=nope].x"), nullptr);
    EXPECT_EQ(root.resolve("geomean.too.deep"), nullptr);
    EXPECT_EQ(root.resolve("workloads.[9].workload"), nullptr);
    EXPECT_EQ(root.resolve(""), nullptr);
}

TEST(Evaluate, BandVerdictsAcrossTheTolerance)
{
    const Json root = fixtureArtifact();
    // geomean = 4.5; band [4.0, 5.0], 10% warn margin (of 5.0 = 0.5).
    const auto band = [&](double lo, double hi) {
        return evaluate(Expectation::range("g", "Fig. 7", "geomean",
                                           "geomean", "x", lo, hi,
                                           0.10),
                        root);
    };
    EXPECT_EQ(band(4.0, 5.0).verdict, Verdict::Pass);
    // Exactly on the boundary is inclusive PASS.
    EXPECT_EQ(band(4.5, 5.0).verdict, Verdict::Pass);
    EXPECT_EQ(band(4.0, 4.5).verdict, Verdict::Pass);
    // Outside the band but within margin: WARN. Band [4.6, 5.0] has
    // margin 0.5, so 4.5 >= 4.6 - 0.5.
    EXPECT_EQ(band(4.6, 5.0).verdict, Verdict::Warn);
    // Exactly at the WARN edge (band [5.0, 5.0], margin 0.5,
    // 4.5 == 5.0 - 0.5) still rates WARN.
    EXPECT_EQ(band(5.0, 5.0).verdict, Verdict::Warn);
    // Beyond the margin (band [5.2, 6.0] has margin 0.6, and
    // 4.5 < 5.2 - 0.6): FAIL.
    EXPECT_EQ(band(5.2, 6.0).verdict, Verdict::Fail);

    const Outcome missing = evaluate(
        Expectation::range("m", "Fig. 7", "missing", "nope", "x", 0.0,
                           1.0),
        root);
    EXPECT_EQ(missing.verdict, Verdict::Fail);
    EXPECT_FALSE(missing.haveMeasured);
}

TEST(Evaluate, ExactAndNearFactories)
{
    Json root = Json::object();
    root["cores"] = 24;
    EXPECT_EQ(evaluate(Expectation::exact("c", "Tab. II", "cores",
                                          "cores", "", 24.0),
                       root)
                  .verdict,
              Verdict::Pass);
    EXPECT_EQ(evaluate(Expectation::exact("c", "Tab. II", "cores",
                                          "cores", "", 25.0),
                       root)
                  .verdict,
              Verdict::Fail);
    // near: 24 within 10% of 26, not of 30.
    EXPECT_EQ(evaluate(Expectation::near("c", "Tab. II", "cores",
                                         "cores", "", 26.0, 0.10),
                       root)
                  .verdict,
              Verdict::Pass);
    EXPECT_EQ(evaluate(Expectation::near("c", "Tab. II", "cores",
                                         "cores", "", 30.0, 0.10,
                                         0.0),
                       root)
                  .verdict,
              Verdict::Fail);
}

TEST(Evaluate, OrderingSlackSemantics)
{
    const Json root = fixtureArtifact();
    const std::string a =
        "workloads.[workload=rocksdb].schemes.CHA-TLB.speedup"; // 2.5
    const std::string b =
        "workloads.[workload=dpdk].schemes.CHA-TLB.speedup"; // 10.5
    // Plain ordering holds.
    EXPECT_EQ(evaluate(Expectation::ordering("o", "Fig. 7", "lt", a,
                                             Relation::Lt, b),
                       root)
                  .verdict,
              Verdict::Pass);
    // Violated ordering with no slack: 10.5 < 2.5 is false, and
    // 10.5 > 2.5 * 1.10 (the default warn slack), so FAIL.
    EXPECT_EQ(evaluate(Expectation::ordering("o", "Fig. 7", "lt", b,
                                             Relation::Lt, a),
                       root)
                  .verdict,
              Verdict::Fail);
    // "On par" slack: 2.5 >= 10.5 fails flat but passes with a slack
    // that relaxes the RHS below 2.5 (1 - 0.8 => 2.1).
    EXPECT_EQ(evaluate(Expectation::ordering("o", "Fig. 7", "ge", a,
                                             Relation::Ge, b, 0.80),
                       root)
                  .verdict,
              Verdict::Pass);
    // Between the pass slack and warn slack: WARN. RHS*0.75 = 7.875
    // still above 2.5? no — use values where only warn band holds:
    // a=2.5 vs b*(1-0.70)=3.15 fails, b*(1-0.80)=2.1 warns.
    EXPECT_EQ(evaluate(Expectation::ordering("o", "Fig. 7", "ge", a,
                                             Relation::Ge, b, 0.70,
                                             {}, 0.80),
                       root)
                  .verdict,
              Verdict::Warn);
    // Missing right-hand side: FAIL, never throws.
    EXPECT_EQ(evaluate(Expectation::ordering("o", "Fig. 7", "x", a,
                                             Relation::Lt, "nope"),
                       root)
                  .verdict,
              Verdict::Fail);
}

TEST(Evaluate, ShapeAndOverallFold)
{
    const Json root = fixtureArtifact();
    Suite suite;
    suite.title = "t";
    suite.expectations.push_back(
        Expectation::shape("s1", "Sec. V", "holds", true, "ok"));
    suite.expectations.push_back(Expectation::range(
        "g", "Fig. 7", "geomean", "geomean", "x", 4.0, 5.0));
    std::vector<Outcome> outcomes = evaluate(suite, root);
    EXPECT_EQ(overall(outcomes), Verdict::Pass);

    suite.expectations.push_back(
        Expectation::shape("s2", "Sec. V", "broken", false, "bad"));
    outcomes = evaluate(suite, root);
    EXPECT_EQ(overall(outcomes), Verdict::Fail);
    EXPECT_EQ(worseOf(Verdict::Pass, Verdict::Warn), Verdict::Warn);
    EXPECT_EQ(worseOf(Verdict::Fail, Verdict::Warn), Verdict::Fail);
}

TEST(Artifact, ValidationBlockEmbedsMetadataAndCounts)
{
    const Json root = fixtureArtifact();
    Suite suite;
    suite.title = "Fig. 7 — test";
    suite.preamble = "preamble text";
    suite.expectations.push_back(Expectation::reanchored(
        "re", "Fig. 7", "re-anchored check", "geomean", "x", 8.0, 8.0,
        4.0, 5.0, 0.10, "why the gate moved"));
    suite.expectations.push_back(Expectation::ordering(
        "ord", "Fig. 7", "ordering check",
        "workloads.[workload=dpdk].schemes.CHA-TLB.speedup",
        Relation::Gt,
        "workloads.[workload=rocksdb].schemes.CHA-TLB.speedup"));
    const std::vector<Outcome> outcomes = evaluate(suite, root);
    const Json block = toJson(suite, outcomes);

    EXPECT_EQ(block.at("verdict").asString(), "PASS");
    EXPECT_EQ(block.at("counts").at("pass").asInt(), 2);
    EXPECT_EQ(block.at("counts").at("fail").asInt(), 0);
    const Json& first = *block.at("expectations").resolve("[id=re]");
    EXPECT_EQ(first.at("kind").asString(), "band");
    EXPECT_DOUBLE_EQ(first.at("paper_lo").asDouble(), 8.0);
    EXPECT_DOUBLE_EQ(first.at("gate_hi").asDouble(), 5.0);
    EXPECT_EQ(first.at("note").asString(), "why the gate moved");
    EXPECT_DOUBLE_EQ(first.at("value").asDouble(), 4.5);
    const Json& second = *block.at("expectations").resolve("[id=ord]");
    EXPECT_EQ(second.at("relation").asString(), ">");
    EXPECT_DOUBLE_EQ(second.at("value_b").asDouble(), 2.5);
}

TEST(Experiments, RenderIsByteStableAndCanonicallyOrdered)
{
    // Two artifacts, deliberately passed in non-canonical order.
    Json fig07 = fixtureArtifact();
    Suite suite;
    suite.title = "Fig. 7 — test";
    suite.preamble = "para";
    suite.expectations.push_back(Expectation::range(
        "g", "Fig. 7", "geomean", "geomean", "x", 4.0, 5.0, 0.10,
        "a note"));
    fig07["validation"] = toJson(suite, evaluate(suite, fig07));

    Json fig01 = Json::object();
    fig01["bench"] = "fig01_profiling";
    // No validation block: placeholder section.

    const std::vector<Json> reversed{fig07, fig01};
    const std::string a = renderExperiments(reversed);
    const std::string b = renderExperiments(reversed);
    EXPECT_EQ(a, b) << "regeneration must be byte-stable";

    // Canonical order puts fig01 before fig07 regardless of input
    // order.
    const auto posFig01 = a.find("`fig01_profiling`");
    const auto posFig07 = a.find("Fig. 7 — test");
    ASSERT_NE(posFig01, std::string::npos);
    ASSERT_NE(posFig07, std::string::npos);
    EXPECT_LT(posFig01, posFig07);

    // The table carries the check, paper value, measured value,
    // verdict, and the note.
    EXPECT_NE(a.find("| `g` | Fig. 7 | 4.00x~5.00x | 4.50x | PASS |"),
              std::string::npos)
        << a;
    EXPECT_NE(a.find("- `g` — a note"), std::string::npos);
    EXPECT_NE(a.find("GENERATED FILE"), std::string::npos);

    // Same artifacts in canonical order render identically.
    const std::vector<Json> canonical{fig01, fig07};
    EXPECT_EQ(renderExperiments(canonical), a);
}

TEST(Experiments, CanonicalOrderCoversAllHarnesses)
{
    const std::vector<std::string>& order = canonicalBenchOrder();
    EXPECT_EQ(order.size(), 19u);
    EXPECT_EQ(order.front(), "fig01_profiling");
    EXPECT_EQ(order.back(), "abl_overload");
}

TEST(Format, ValueFormattingIsDeterministic)
{
    EXPECT_EQ(formatValue(0.639, "%"), "63.9%");
    EXPECT_EQ(formatValue(4.455, "x"), "4.46x");
    EXPECT_EQ(formatValue(309.0, "cyc"), "309 cyc");
    EXPECT_EQ(formatValue(0.1791, "mm^2"), "0.1791 mm^2");
    EXPECT_EQ(formatValue(24.0, ""), "24");
}

} // namespace
