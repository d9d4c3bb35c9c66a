/**
 * @file
 * Generator for EXPERIMENTS.md: folds the `validation` blocks of the
 * BENCH_*.json artifacts into the paper-vs-measured document, so the
 * committed docs are produced from exactly the metadata the CI gate
 * enforces. `tools/qei-validate` drives this; the committed file is
 * checked byte-identical against a regeneration in CI.
 */

#ifndef QEI_VALIDATE_EXPERIMENTS_HH
#define QEI_VALIDATE_EXPERIMENTS_HH

#include <string>
#include <vector>

#include "common/json.hh"

namespace qei::validate {

/** The harnesses in the paper's presentation order. */
const std::vector<std::string>& canonicalBenchOrder();

/**
 * Render the full EXPERIMENTS.md from harness artifacts (each a
 * parsed BENCH_*.json). Artifacts are ordered canonically (unknown
 * bench names, sorted, go last); artifacts without a `validation`
 * block get a placeholder section. Pure function of the inputs —
 * byte-stable across regenerations.
 */
std::string renderExperiments(const std::vector<Json>& artifacts);

} // namespace qei::validate

#endif // QEI_VALIDATE_EXPERIMENTS_HH
