// Self-tests for the benchmark's own arithmetic (stats.hpp): median and
// quartiles, the ten-samples-beyond rule that gates op_ms_p90, error_rate
// with zero attempts, and the derived per-layer metrics.  run.py runs this
// after every build and refuses to measure if it fails; `ctest` in the
// benchmark's build directory runs it too.  Exit code 0 iff all checks hold.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(const char* what, bool ok) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s\n", what);
    ++failures;
  }
}

void expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
    std::fprintf(stderr, "FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace perfbench;

  // Median of odd and even counts, from unsorted input.
  expect_near("median odd", median({3, 1, 2}), 2);
  expect_near("median even", median({4, 1, 3, 2}), 2.5);
  expect_near("median single", median({7}), 7);

  // Quartiles agree with Python's statistics.quantiles(data, n=4), the
  // rule the benchmark's spread is judged by:
  //   quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  //   quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
  const std::vector<double> ten{10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  expect_near("q1 of 1..10", quantile(ten, 0.25), 2.75);
  expect_near("q2 of 1..10", quantile(ten, 0.50), 5.5);
  expect_near("q3 of 1..10", quantile(ten, 0.75), 8.25);
  expect_near("q1 of 1..5", quantile({1, 2, 3, 4, 5}, 0.25), 1.5);
  expect_near("q3 of 1..5", quantile({1, 2, 3, 4, 5}, 0.75), 4.5);
  // Positions outside the sample clamp to its extremes.
  expect_near("p90 of 3", quantile({1, 2, 3}, 0.9), 3);
  expect_near("p0 of 3", quantile({1, 2, 3}, 0.0), 1);
  bool threw = false;
  try {
    (void)median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect("median of nothing throws", threw);

  // The ten-samples-beyond rule: p90 needs 100 ops, p50 needs 20.
  expect("p90 valid at 100 ops", tail_has_ten_beyond(100, 90));
  expect("p90 invalid at 99 ops", !tail_has_ten_beyond(99, 90));
  expect("p90 invalid at 25 ops", !tail_has_ten_beyond(25, 90));
  expect("p50 valid at 20 ops", tail_has_ten_beyond(20, 50));
  expect("p50 invalid at 19 ops", !tail_has_ten_beyond(19, 50));
  expect("p99 valid at 1000 ops", tail_has_ten_beyond(1000, 99));
  expect("p99 invalid at 999 ops", !tail_has_ten_beyond(999, 99));
  expect("p100 never valid", !tail_has_ten_beyond(1000000, 100));

  // error_rate: no attempts reads as wholly failed, never as clean.
  expect_near("error_rate, no attempts", error_rate(0, 0), 1.0);
  expect_near("error_rate, clean", error_rate(0, 25), 0.0);
  expect_near("error_rate, 1 of 4", error_rate(1, 4), 0.25);

  expect_near("ops_per_second", ops_per_second({100, 300}), 5.0);
  expect_near("ops_per_second, no ops", ops_per_second({}), 0.0);

  // Derived per-layer metrics.
  expect_near("labeling.serialize_ms",
              derived_serialize_ms(400, 130, 20, 210), 40);
  expect_near("labeling.serialize_ms keeps noise negative",
              derived_serialize_ms(100, 60, 10, 40), -10);
  expect_near("runtime.ship_verify_ms", derived_ship_verify_ms(110, 31), 79);
  expect_near("mp.exchange_mb_per_s", derived_mb_per_s(2.5e6, 250), 10);
  expect_near("mp.exchange_mb_per_s, zero time", derived_mb_per_s(1e6, 0), 0);
  expect_near("obs.trace_overhead_pct", overhead_pct(102, 100), 2);
  expect_near("obs.trace_overhead_pct, faster", overhead_pct(99, 100), -1);

  if (failures != 0) {
    std::fprintf(stderr, "%d perfbench self-test(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
