/**
 * @file
 * Lightweight statistics collection.
 *
 * Components own Counter / ScalarStat / Histogram members and register
 * them — under their SimObject's dotted path — with a StatsRegistry;
 * the registry renders everything for reports, serializes to JSON/CSV
 * (see stats_json.hh), and resets between regions of interest.
 */

#ifndef QEI_COMMON_STATS_HH
#define QEI_COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace qei {

/** Monotonic event counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t by = 1) { value_ += by; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Accumulates samples; reports count / sum / mean / min / max. */
class ScalarStat
{
  public:
    void
    sample(double v)
    {
        if (count_ == 0 || v < min_)
            min_ = v;
        if (count_ == 0 || v > max_)
            max_ = v;
        sum_ += v;
        ++count_;
    }

    void
    reset()
    {
        count_ = 0;
        sum_ = min_ = max_ = 0.0;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    /** Smallest sample; 0.0 while no samples have been recorded. */
    double min() const { return count_ ? min_ : 0.0; }
    /** Largest sample; 0.0 while no samples have been recorded. */
    double max() const { return count_ ? max_ : 0.0; }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Fixed-bucket histogram over [0, bucketWidth * bucketCount). */
class Histogram
{
  public:
    /** Non-positive widths clamp to 1.0 and a zero bucket count to
     *  one bucket, so sample() can always divide and index safely. */
    Histogram(double bucket_width = 1.0, std::size_t bucket_count = 64)
        : bucketWidth_(bucket_width > 0.0 ? bucket_width : 1.0),
          buckets_(bucket_count > 0 ? bucket_count : 1, 0)
    {
    }

    void
    sample(double v)
    {
        scalar_.sample(v);
        std::size_t idx = v <= 0.0
            ? 0
            : static_cast<std::size_t>(v / bucketWidth_);
        if (idx >= buckets_.size())
            idx = buckets_.size() - 1;
        ++buckets_[idx];
    }

    void
    reset()
    {
        scalar_.reset();
        for (auto& b : buckets_)
            b = 0;
    }

    /** Value below which @p fraction of all samples fall (approximate). */
    double percentile(double fraction) const;

    const ScalarStat& scalar() const { return scalar_; }
    const std::vector<std::uint64_t>& buckets() const { return buckets_; }
    double bucketWidth() const { return bucketWidth_; }

  private:
    ScalarStat scalar_;
    double bucketWidth_;
    std::vector<std::uint64_t> buckets_;
};

/**
 * Registry of every statistic in one simulated system, keyed by dotted
 * hierarchical path ("system.accel3.qst.occupancy").
 *
 * The registry borrows non-owning pointers: build it (via
 * SimObject::regStatsTree) immediately before rendering or dumping,
 * while the registered components are alive. Formulas are derived
 * read-only values (hit rates, utilisations) evaluated at dump time.
 *
 * Registration throws std::invalid_argument on a duplicate or empty
 * path — two components claiming the same path is a wiring bug.
 */
class StatsRegistry
{
  public:
    enum class Kind : std::uint8_t { Counter, Scalar, Histogram, Formula };

    struct Entry
    {
        Kind kind = Kind::Counter;
        std::string desc;
        Counter* counter = nullptr;
        ScalarStat* scalar = nullptr;
        Histogram* histogram = nullptr;
        std::function<double()> formula;
    };

    void addCounter(const std::string& path, Counter& c,
                    std::string desc = {});
    void addScalar(const std::string& path, ScalarStat& s,
                   std::string desc = {});
    void addHistogram(const std::string& path, Histogram& h,
                      std::string desc = {});
    /** Derived value evaluated lazily at render/dump time. */
    void addFormula(const std::string& path,
                    std::function<double()> formula,
                    std::string desc = {});

    bool contains(const std::string& path) const;
    /** Entry at @p path; nullptr when absent. */
    const Entry* find(const std::string& path) const;
    /** Scalar view of @p path: counter value, scalar mean, histogram
     *  mean, or formula result. Throws std::out_of_range if absent. */
    double value(const std::string& path) const;

    std::vector<std::string> paths() const;
    std::size_t size() const { return entries_.size(); }
    const std::map<std::string, Entry>& entries() const
    {
        return entries_;
    }

    /** Render "path value" lines; @p skip_zero drops counters at 0 and
     *  scalars/histograms with no samples. */
    std::string render(bool skip_zero = false) const;

    /** Pretty-printed JSON document (see stats_json.hh for the value
     *  model and the flat path -> record layout). */
    std::string dumpJson() const;

    /** "path,field,value" CSV rows with a header line. */
    std::string dumpCsv() const;

    /** Region-of-interest reset: zero every registered counter,
     *  scalar, and histogram (formulas are derived and unaffected). */
    void resetAll();

  private:
    void insert(const std::string& path, Entry entry);

    std::map<std::string, Entry> entries_;
};

} // namespace qei

#endif // QEI_COMMON_STATS_HH
