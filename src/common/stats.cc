#include "stats.hh"

#include <stdexcept>

#include "common/format.hh"

namespace qei {

double
Histogram::percentile(double fraction) const
{
    if (fraction < 0.0)
        fraction = 0.0;
    if (fraction > 1.0)
        fraction = 1.0;
    const std::uint64_t total = scalar_.count();
    if (total == 0)
        return 0.0;
    const double target = fraction * static_cast<double>(total);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        const double before = static_cast<double>(seen);
        seen += buckets_[i];
        if (static_cast<double>(seen) >= target) {
            // Linear interpolation inside the bucket: samples are
            // assumed uniform over [i*w, (i+1)*w), so the estimate
            // moves smoothly with the fraction instead of jumping a
            // whole bucket width at a time.
            const double within =
                (target - before) /
                static_cast<double>(buckets_[i]);
            return (static_cast<double>(i) + within) * bucketWidth_;
        }
    }
    return static_cast<double>(buckets_.size()) * bucketWidth_;
}

void
StatsRegistry::insert(const std::string& path, Entry entry)
{
    if (path.empty())
        throw std::invalid_argument("StatsRegistry: empty stat path");
    auto [it, inserted] = entries_.emplace(path, std::move(entry));
    (void)it;
    if (!inserted) {
        throw std::invalid_argument(
            "StatsRegistry: duplicate stat path '" + path + "'");
    }
}

void
StatsRegistry::addCounter(const std::string& path, Counter& c,
                          std::string desc)
{
    Entry e;
    e.kind = Kind::Counter;
    e.desc = std::move(desc);
    e.counter = &c;
    insert(path, std::move(e));
}

void
StatsRegistry::addScalar(const std::string& path, ScalarStat& s,
                         std::string desc)
{
    Entry e;
    e.kind = Kind::Scalar;
    e.desc = std::move(desc);
    e.scalar = &s;
    insert(path, std::move(e));
}

void
StatsRegistry::addHistogram(const std::string& path, Histogram& h,
                            std::string desc)
{
    Entry e;
    e.kind = Kind::Histogram;
    e.desc = std::move(desc);
    e.histogram = &h;
    insert(path, std::move(e));
}

void
StatsRegistry::addFormula(const std::string& path,
                          std::function<double()> formula,
                          std::string desc)
{
    Entry e;
    e.kind = Kind::Formula;
    e.desc = std::move(desc);
    e.formula = std::move(formula);
    insert(path, std::move(e));
}

bool
StatsRegistry::contains(const std::string& path) const
{
    return entries_.find(path) != entries_.end();
}

const StatsRegistry::Entry*
StatsRegistry::find(const std::string& path) const
{
    auto it = entries_.find(path);
    return it == entries_.end() ? nullptr : &it->second;
}

double
StatsRegistry::value(const std::string& path) const
{
    const Entry* e = find(path);
    if (e == nullptr)
        throw std::out_of_range("StatsRegistry: no stat at '" + path +
                                "'");
    switch (e->kind) {
    case Kind::Counter:
        return static_cast<double>(e->counter->value());
    case Kind::Scalar:
        return e->scalar->mean();
    case Kind::Histogram:
        return e->histogram->scalar().mean();
    case Kind::Formula:
        return e->formula();
    }
    return 0.0;
}

std::vector<std::string>
StatsRegistry::paths() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [path, entry] : entries_) {
        (void)entry;
        out.push_back(path);
    }
    return out;
}

std::string
StatsRegistry::render(bool skip_zero) const
{
    std::string out;
    for (const auto& [path, e] : entries_) {
        switch (e.kind) {
        case Kind::Counter:
            if (skip_zero && e.counter->value() == 0)
                break;
            out += fmt("{} {}\n", path, e.counter->value());
            break;
        case Kind::Scalar:
            if (skip_zero && e.scalar->count() == 0)
                break;
            out += fmt("{} count={} mean={:.4f} min={:.4f} "
                       "max={:.4f}\n",
                       path, e.scalar->count(), e.scalar->mean(),
                       e.scalar->min(), e.scalar->max());
            break;
        case Kind::Histogram:
            if (skip_zero && e.histogram->scalar().count() == 0)
                break;
            out += fmt("{} count={} mean={:.4f} p50={:.2f} "
                       "p99={:.2f}\n",
                       path, e.histogram->scalar().count(),
                       e.histogram->scalar().mean(),
                       e.histogram->percentile(0.50),
                       e.histogram->percentile(0.99));
            break;
        case Kind::Formula:
            out += fmt("{} {:.6f}\n", path, e.formula());
            break;
        }
    }
    return out;
}

void
StatsRegistry::resetAll()
{
    for (auto& [path, e] : entries_) {
        (void)path;
        switch (e.kind) {
        case Kind::Counter:
            e.counter->reset();
            break;
        case Kind::Scalar:
            e.scalar->reset();
            break;
        case Kind::Histogram:
            e.histogram->reset();
            break;
        case Kind::Formula:
            break;
        }
    }
}

} // namespace qei
