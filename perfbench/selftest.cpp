// Self-test of the benchmark's own machinery:
//   * the percentile helpers (quantiles, and the tail percentile that keeps
//     at least ten samples beyond it);
//   * the traced-run decorators are behaviour-neutral: on the small cut of
//     every workload, a traced round simulates exactly what an untraced
//     round does (equal digests) and every output check passes.
// perfbench/run.py --selftest runs this plus the checks that need
// BENCHMARK.json and the committed digests.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  using namespace perfbench;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  check(near(quantile(v, 0.0), 1.0), "quantile q=0 is the minimum");
  check(near(quantile(v, 1.0), 100.0), "quantile q=1 is the maximum");
  check(near(quantile(v, 0.5), 50.5), "quantile q=0.5 interpolates");
  check(near(median({3.0}), 3.0), "median of one sample");
  check(near(quantile({}, 0.5), 0.0), "quantile of nothing is 0");

  std::vector<double> big;
  for (int i = 0; i < 1000; ++i) big.push_back(i);
  const TailPercentile t95 = tail_percentile(big, 0.95);
  check(near(t95.q, 0.95) && t95.beyond >= 10, "p95 kept when 1000 samples support it");
  check(near(t95.value, quantile(big, 0.95)), "p95 value is the plain quantile");

  std::vector<double> forty(big.begin(), big.begin() + 40);
  const TailPercentile t40 = tail_percentile(forty, 0.95);
  check(near(t40.q, 0.75) && t40.beyond == 10, "p95 of 40 samples falls back to p75");

  const TailPercentile tiny = tail_percentile(std::vector<double>(10, 1.0), 0.95);
  check(tiny.q == 0.0 && tiny.beyond == 0, "10 samples support no tail percentile");

  for (std::size_t n = 11; n < 400; n += 7) {
    const TailPercentile t = tail_percentile(std::vector<double>(big.begin(), big.begin() + n), 0.95);
    if (t.beyond < 10) {
      check(false, "tail percentile keeps >= 10 samples beyond (sweep over n)");
      return;
    }
  }
  check(true, "tail percentile keeps >= 10 samples beyond (sweep over n)");
}

void test_decorators_are_neutral() {
  using namespace perfbench;
  for (const WorkloadKind w : kAllWorkloads) {
    auto small = make_workload(w, kDefaultSeed, Size::kSmall);
    const RoundResult plain = small->round(false);
    const RoundResult timed = small->round(true);
    const SpanTotals spans = collect_spans();
    const std::string name = workload_name(w);
    check(plain.attempted > 0 && plain.failed == 0 && timed.failed == 0,
          (name + ": small cut passes its output checks").c_str());
    check(plain.digest == timed.digest,
          (name + ": traced digest equals untraced digest").c_str());
    check(spans.root_ns() > 0, (name + ": traced round recorded spans").c_str());
  }
}

}  // namespace

int main() {
  test_percentiles();
  test_decorators_are_neutral();
  std::printf("%s (%d failure%s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures,
              g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
