#include "experiments.hh"

#include <algorithm>

namespace qei::validate {

const std::vector<std::string>&
canonicalBenchOrder()
{
    static const std::vector<std::string> order{
        "fig01_profiling",    "tab1_schemes",     "tab2_config",
        "fig07_speedup",      "fig08_latency_sweep",
        "fig09_end_to_end",   "fig10_tuple_space",
        "fig11_inst_count",   "fig12_dyn_power",  "tab3_area_power",
        "abl_qst_size",       "abl_remote_cmp",   "abl_noc_hotspot",
        "abl_multicore",      "abl_flush",        "abl_open_loop",
        "abl_batch",          "abl_planner",      "abl_overload",
    };
    return order;
}

namespace {

std::string
benchName(const Json& artifact)
{
    const Json* name = artifact.find("bench");
    return name && name->isString() ? name->asString() : "(unknown)";
}

/** Canonical position; unknown names sort after, alphabetically. */
std::size_t
canonicalIndex(const std::string& name)
{
    const auto& order = canonicalBenchOrder();
    const auto it = std::find(order.begin(), order.end(), name);
    return static_cast<std::size_t>(it - order.begin());
}

std::string
stringOr(const Json& obj, const std::string& key,
         const std::string& fallback)
{
    const Json* v = obj.find(key);
    return v && v->isString() ? v->asString() : fallback;
}

std::string
intText(const Json& obj, const std::string& key)
{
    const Json* v = obj.find(key);
    return v && v->isNumber() ? std::to_string(v->asInt()) : "0";
}

void
renderSection(std::string& out, const Json& artifact)
{
    const std::string bench = benchName(artifact);
    const Json* validation = artifact.find("validation");
    if (validation == nullptr || !validation->isObject()) {
        out += "## " + bench + "\n\n";
        out += "_No validation block in this artifact (rerun "
               "`scripts/run_benches.sh --validate`)._\n\n";
        return;
    }

    out += "## " + stringOr(*validation, "title", bench) + " (`" +
           bench + "`)\n\n";
    const std::string preamble = stringOr(*validation, "preamble", "");
    if (!preamble.empty())
        out += preamble + "\n\n";

    out += "| check | ref | paper | measured | verdict |\n";
    out += "|---|---|---|---|---|\n";
    std::vector<std::pair<std::string, std::string>> notes;
    if (const Json* list = validation->find("expectations")) {
        for (const Json& e : list->elements()) {
            out += "| `" + stringOr(e, "id", "?") + "` | " +
                   stringOr(e, "paper_ref", "") + " | " +
                   stringOr(e, "paper", "") + " | " +
                   stringOr(e, "measured", "") + " | " +
                   stringOr(e, "verdict", "FAIL") + " |\n";
            const std::string note = stringOr(e, "note", "");
            if (!note.empty())
                notes.emplace_back(stringOr(e, "id", "?"), note);
        }
    }
    out += "\n";
    if (!notes.empty()) {
        out += "Notes:\n\n";
        for (const auto& [id, note] : notes)
            out += "- `" + id + "` — " + note + "\n";
        out += "\n";
    }
}

} // namespace

std::string
renderExperiments(const std::vector<Json>& artifacts)
{
    // Canonical presentation order, independent of input order.
    std::vector<const Json*> ordered;
    ordered.reserve(artifacts.size());
    for (const Json& a : artifacts)
        ordered.push_back(&a);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const Json* a, const Json* b) {
                         const std::string na = benchName(*a);
                         const std::string nb = benchName(*b);
                         const std::size_t ia = canonicalIndex(na);
                         const std::size_t ib = canonicalIndex(nb);
                         if (ia != ib)
                             return ia < ib;
                         return na < nb;
                     });

    std::string out;
    out += "# EXPERIMENTS — paper vs. measured\n";
    out += "\n";
    out += "<!-- GENERATED FILE — do not edit by hand.\n"
           "     Rendered by tools/qei-validate from the BENCH_*.json\n"
           "     artifacts' `validation` blocks, i.e. from the same\n"
           "     expectation metadata the CI gate enforces. To update:\n"
           "         scripts/run_benches.sh --validate build\n"
           "         cp BENCH_out/EXPERIMENTS.md EXPERIMENTS.md\n"
           "     CI fails when the committed file drifts from a\n"
           "     regeneration. -->\n";
    out += "\n";
    out += "Every table and figure of the paper's evaluation (Sec. II "
           "profiling + Sec. VII), regenerated by the binaries in "
           "`bench/` on the default seeds (fully deterministic) and "
           "gated by the typed expectations declared next to each "
           "harness (`src/validate/`, semantics in "
           "`docs/validation.md`). \"paper\" is the value or band the "
           "paper states; \"measured\" comes from the artifact; the "
           "verdict applies the gate band, which is re-anchored — "
           "always with a justification note — only for the "
           "documented known deltas.\n";
    out += "\n";

    out += "## Summary\n";
    out += "\n";
    out += "| harness | pass | warn | fail | verdict |\n";
    out += "|---|---|---|---|---|\n";
    for (const Json* a : ordered) {
        const Json* validation = a->find("validation");
        if (validation == nullptr || !validation->isObject()) {
            out += "| `" + benchName(*a) +
                   "` | 0 | 0 | 0 | (no validation block) |\n";
            continue;
        }
        const Json* counts = validation->find("counts");
        static const Json empty = Json::object();
        const Json& c = counts ? *counts : empty;
        out += "| `" + benchName(*a) + "` | " + intText(c, "pass") +
               " | " + intText(c, "warn") + " | " +
               intText(c, "fail") + " | " +
               stringOr(*validation, "verdict", "FAIL") + " |\n";
    }
    out += "\n";

    for (const Json* a : ordered)
        renderSection(out, *a);

    out += "---\n";
    out += "\n";
    out += "Functional validation: every QEI query in every experiment "
           "is checked against the software reference result; the "
           "zero-mismatch shape checks above are evaluated from the "
           "same artifacts.\n";
    return out;
}

} // namespace qei::validate
