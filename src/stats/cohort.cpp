#include "stats/cohort.hpp"

#include <algorithm>

namespace hvc::stats {

void JainAccumulator::add(double per_user_value) {
  const std::int64_t q = quantize(std::max(0.0, per_user_value));
  ++n_;
  sum_.add(q);
  sumsq_.add_product(q, q);
}

void JainAccumulator::merge(const JainAccumulator& o) {
  n_ += o.n_;
  sum_.merge(o.sum_);
  sumsq_.merge(o.sumsq_);
}

double JainAccumulator::index() const {
  if (n_ == 0) return 1.0;
  const double s = sum_.to_double();
  const double ss = sumsq_.to_double();
  if (ss <= 0.0) return 1.0;  // every user saw 0 — vacuously fair
  return (s * s) / (static_cast<double>(n_) * ss);
}

void CohortStats::merge(const CohortStats& o) {
  for (const auto& [name, m] : o.metrics) {
    auto it = metrics.find(name);
    if (it == metrics.end()) {
      metrics.emplace(name, m);
    } else {
      it->second.merge(m);
    }
  }
  fairness.merge(o.fairness);
}

void CohortSet::merge(const CohortSet& o) {
  for (const auto& [name, c] : o.cohorts_) {
    auto it = cohorts_.find(name);
    if (it == cohorts_.end()) {
      cohorts_.emplace(name, c);
    } else {
      it->second.merge(c);
    }
  }
}

void CohortSet::export_metrics(const std::string& prefix,
                               std::map<std::string, double>* out) const {
  for (const auto& [cname, c] : cohorts_) {
    for (const auto& [mname, m] : c.metrics) {
      const std::string base = prefix + '.' + cname + '.' + mname;
      (*out)[base + ".count"] = static_cast<double>(m.moments.count());
      (*out)[base + ".mean"] = m.moments.mean();
      (*out)[base + ".stddev"] = m.moments.stddev();
      (*out)[base + ".min"] = m.moments.min();
      (*out)[base + ".max"] = m.moments.max();
      for (const double p : {5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
        (*out)[base + ".p" + std::to_string(static_cast<int>(p))] =
            m.hist.percentile(p);
      }
    }
    if (c.fairness.users() > 0) {
      (*out)[prefix + ".jain." + cname] = c.fairness.index();
      (*out)[prefix + ".jain." + cname + ".users"] =
          static_cast<double>(c.fairness.users());
    }
  }
}

std::size_t CohortSet::memory_bytes() const {
  std::size_t total = sizeof(CohortSet);
  for (const auto& [name, c] : cohorts_) {
    total += sizeof(CohortStats) + name.size();
    for (const auto& [mname, m] : c.metrics) {
      total += sizeof(MetricStats) + mname.size() +
               LogHistogram::memory_bytes();
    }
  }
  return total;
}

}  // namespace hvc::stats
