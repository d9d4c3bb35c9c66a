/**
 * @file
 * QUERY_BATCH: batched, sequence-aware query submission.
 *
 * A batch amortizes the per-query costs the scalar path pays in full —
 * instruction issue, core->accelerator submit (one NoC header per
 * batch descriptor instead of per key), QST admission (one contiguous
 * window reservation and one backoff decision per batch), and the
 * accelerator-side header fetch + structure-level line fetches, which
 * coalesce across the batch's in-flight members (the level-wise
 * traversal model of the FPGA B+ tree batch-search literature: visit
 * one structure level for the whole batch before descending, turning
 * dependent pointer chases into shared line reuse).
 *
 * On top sits a sequence-aware reorderer (after ReProVide's
 * query-sequence optimization): pending jobs are grouped by target
 * accelerator and sorted by target structure / key locality before
 * being chunked into batches, so members of one batch actually share
 * headers and upper-level lines. The scalar path is untouched: a
 * BatchConfig with size <= 1 never reaches any of this code.
 */

#ifndef QEI_QEI_BATCH_HH
#define QEI_QEI_BATCH_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/sim_object.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace qei {

struct QueryJob;

/** Sequence-aware reordering policy applied before batching. */
enum class BatchReorder : std::uint8_t {
    /** Preserve arrival order (chunk as-is). */
    None,
    /** Group by target structure (header address). */
    ByStructure,
    /** Group by structure, then by key cacheline (best locality). */
    ByKeyLocality,
};

const char* toString(BatchReorder policy);

/** Batched-execution knobs carried by DriverConfig. */
struct BatchConfig
{
    /** Keys per QUERY_BATCH descriptor; <= 1 means scalar. */
    int size = 1;
    /** Reordering applied to the pending jobs before chunking. */
    BatchReorder reorder = BatchReorder::None;
    /**
     * Enable level-wise line/header coalescing across the batch's
     * in-flight members. Off, a batch still amortizes issue, submit,
     * and QST admission but every member pays full memory traffic.
     */
    bool coalesce = true;

    bool enabled() const { return size > 1; }
};

/** One planned batch: the target accelerator plus member job indices
 *  (into the original job vector, so expectations and traces keep
 *  their queryId addressing). */
struct PlannedBatch
{
    int accel = 0;
    std::vector<std::size_t> jobIdxs;
};

/**
 * Plan the batch sequence for @p jobs: group by target accelerator
 * (@p route maps a job index to its accelerator id), reorder each
 * group per @p config.reorder (stable, so equal keys keep arrival
 * order and runs stay deterministic), chunk to @p config.size, and
 * interleave the groups round-robin so a multi-accelerator topology
 * keeps every instance busy. Batches are never split at structure
 * (header) boundaries — mixed-header batches are legal and the
 * accelerator coalesces per distinct header.
 */
std::vector<PlannedBatch>
planQueryBatches(const std::vector<QueryJob>& jobs,
                 const BatchConfig& config,
                 const std::function<int(const QueryJob&)>& route);

/**
 * Chip-level batch counters, registered as the "batch" child of
 * QeiSystem (stats paths system.batch.*). The header/line coalescing
 * hits live in the accelerators; setProbes wires formulas that sum
 * them so the dotted-path registry shows one chip-wide view.
 */
class BatchMetrics : public SimObject
{
  public:
    BatchMetrics() : SimObject("batch") {}

    void
    setProbes(std::function<std::uint64_t()> header_hits,
              std::function<std::uint64_t()> line_hits)
    {
        headerHits_ = std::move(header_hits);
        lineHits_ = std::move(line_hits);
    }

    void
    regStats(StatsRegistry& registry) override
    {
        const std::string base = fullPath() + ".";
        registry.addCounter(base + "batches", batches_,
                            "QUERY_BATCH descriptors submitted");
        registry.addCounter(base + "queries", queries_,
                            "queries submitted inside a batch");
        registry.addCounter(base + "admission_backoffs", backoffs_,
                            "batch admissions deferred by a full QST");
        registry.addFormula(
            base + "header_hits",
            [this] {
                return headerHits_
                           ? static_cast<double>(headerHits_())
                           : 0.0;
            },
            "header fetches coalesced across batch members");
        registry.addFormula(
            base + "line_hits",
            [this] {
                return lineHits_ ? static_cast<double>(lineHits_())
                                 : 0.0;
            },
            "structure-level line fetches coalesced across members");
    }

    Counter& batches() { return batches_; }
    Counter& queries() { return queries_; }
    Counter& backoffs() { return backoffs_; }

  private:
    Counter batches_;
    Counter queries_;
    Counter backoffs_;
    std::function<std::uint64_t()> headerHits_;
    std::function<std::uint64_t()> lineHits_;
};

} // namespace qei

#endif // QEI_QEI_BATCH_HH
