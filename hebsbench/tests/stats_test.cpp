// Self-test of the benchmark's statistics helpers (src/stats.h).
// Expected quartiles are what Python's statistics.quantiles(v, n=4)
// returns for the same values.  Exits 1 on the first mismatch.
//
//   python3 hebsbench/run.py --self-test
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::abs(got - want) > 1e-12) {
    std::fprintf(stderr, "FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

void expect_true(const char* what, bool ok) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace hebsbench::stats;

  expect_near("median odd", median({3, 1, 2}), 2.0);
  expect_near("median even", median({4, 1, 3, 2}), 2.5);
  expect_near("median one", median({7}), 7.0);
  expect_near("median empty", median({}), 0.0);

  const std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto q = quartiles(ten);
  expect_near("quartiles 1..10 q1", q[0], 2.75);
  expect_near("quartiles 1..10 q2", q[1], 5.5);
  expect_near("quartiles 1..10 q3", q[2], 8.25);
  q = quartiles({1, 2});
  expect_near("quartiles pair q1", q[0], 0.75);
  expect_near("quartiles pair q3", q[2], 2.25);
  q = quartiles({5, 1, 4, 2, 3});
  expect_near("quartiles unsorted q1", q[0], 1.5);
  expect_near("quartiles unsorted q3", q[2], 4.5);
  q = quartiles({0.1, 0.4, 0.35, 0.8, 0.2, 0.9, 0.15});
  expect_near("quartiles seven q1", q[0], 0.15);
  expect_near("quartiles seven q2", q[1], 0.35);
  expect_near("quartiles seven q3", q[2], 0.8);

  expect_near("percentile p50", percentile({1, 2, 3, 4, 5}, 0.5), 3.0);
  expect_near("percentile p95", percentile({5, 4, 3, 2, 1}, 0.95), 4.8);
  expect_near("percentile p0", percentile({2, 9}, 0.0), 2.0);
  expect_near("percentile p100", percentile({2, 9}, 1.0), 9.0);

  // p95 needs ten samples beyond it: 200 samples, not 199.
  expect_true("200 samples back p95", percentile_defined(200, 0.95));
  expect_true("199 samples do not back p95", !percentile_defined(199, 0.95));
  expect_true("100 samples back p90", percentile_defined(100, 0.90));
  expect_true("samples beyond p95 of 200", samples_beyond(200, 0.95) == 10);
  expect_true("p95 needs 200 samples", samples_needed(0.95) == 200);
  expect_true("p90 needs 100 samples", samples_needed(0.90) == 100);
  expect_true("p75 needs 40 samples", samples_needed(0.75) == 40);
  expect_true("p50 needs 20 samples", samples_needed(0.50) == 20);

  if (failures != 0) {
    std::fprintf(stderr, "%d stats check(s) failed\n", failures);
    return 1;
  }
  std::printf("stats self-test: all checks passed\n");
  return 0;
}
