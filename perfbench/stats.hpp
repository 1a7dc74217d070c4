// The arithmetic behind the benchmark's reported numbers, kept apart from
// the workloads so selftest.cpp can check it on hand-computed inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] of `v` by the "exclusive" rule (Hyndman-Fan type 6,
/// Python's statistics.quantiles default): position q·(n+1) in the sorted
/// sample, 1-based, clamped to [1, n] and linearly interpolated.  The
/// median is quantile(v, 0.5) under every common rule.  Throws on an empty
/// sample: a metric with no samples is a benchmark bug, not a zero.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double pos = std::clamp(q * (n + 1.0), 1.0, n);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const double frac = pos - static_cast<double>(lo);
  if (lo >= v.size()) return v.back();
  return v[lo - 1] + frac * (v[lo] - v[lo - 1]);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("mean of an empty sample");
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// True when the `percent`-th percentile of n samples has at least ten
/// samples beyond it, the rule a tail percentile must meet to be read as
/// more than noise (p90 needs n >= 100).  Integer arithmetic, so n = 100
/// is not lost to 0.1 having no exact binary form.
inline bool tail_has_ten_beyond(std::size_t n, unsigned percent) {
  if (percent >= 100) return false;
  return n * (100 - percent) / 100 >= 10;
}

/// Failed ÷ attempted.  A run that attempted nothing has shown nothing
/// correct, so it reads as wholly failed rather than as error-free.
inline double error_rate(std::size_t failed, std::size_t attempted) {
  if (attempted == 0) return 1.0;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

/// Ops completed ÷ summed op time: the closed loop's throughput.
inline double ops_per_second(const std::vector<double>& op_ms) {
  double total_ms = 0.0;
  for (const double x : op_ms) total_ms += x;
  if (total_ms <= 0.0) return 0.0;
  return static_cast<double>(op_ms.size()) / (total_ms / 1e3);
}

/// labeling.serialize_ms (derived): the part of MstScheme::mark that is
/// neither its is_mst re-check, its rooted tree, nor its decomposition —
/// sublabel assembly and bit serialization.  Each input is the same op's
/// side-call time; the result is not clamped, so noise stays visible.
inline double derived_serialize_ms(double mark_ms, double is_mst_ms,
                                   double rooted_tree_ms,
                                   double decompose_ms) {
  return mark_ms - is_mst_ms - rooted_tree_ms - decompose_ms;
}

/// runtime.ship_verify_ms (derived): what update_and_repair spends beyond
/// the repair itself, i.e. shipping the repaired labels and re-verifying.
inline double derived_ship_verify_ms(double op_ms, double apply_ms) {
  return op_ms - apply_ms;
}

/// mp.exchange_mb_per_s (derived): wire payload bytes (10^6 per MB) moved
/// per second of round time.  0 for a round that took no measurable time.
inline double derived_mb_per_s(double bytes, double round_ms) {
  if (round_ms <= 0.0) return 0.0;
  return (bytes / 1e6) / (round_ms / 1e3);
}

/// 100 · (traced / untraced − 1): how much slower the traced op is.
inline double overhead_pct(double traced_ms, double untraced_ms) {
  if (untraced_ms <= 0.0) return 0.0;
  return 100.0 * (traced_ms / untraced_ms - 1.0);
}

}  // namespace perfbench
