// perfbench: the repository benchmark's runner. Normally started through
// perfbench/run.py, which builds it first:
//
//   perfbench --workload paper_grid|fleet_single|fleet_sharded|live_loopback
//             --seed N --seconds S --trace 0|1 --digests perfbench/digests.txt
//   perfbench --list-metrics      metric names and units, one per line
//   perfbench --emit-digests      default-seed digests of every workload
//
// A run: a fixed host-speed probe loop (printed, not a metric), the
// default-seed digest check on the workload's small cut (also the warm-up),
// then rounds of the seed's inputs until --seconds have passed. --trace 0
// reports the end-to-end metrics, medians over rounds. --trace 1
// alternates untraced and traced rounds and reports the per-layer metrics
// plus the tracing overhead. The last stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"seg_per_s", "1/s"},
    {"goodput_MBps", "MB/s"},  {"xfer_ms_p50", "ms"},
    {"xfer_ms_p95", "ms"},     {"peak_rss_mb", "MB"},
    {"ok_ratio", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"harness.build_ms", "ms"},
    {"harness.build_share", "ratio"},
    {"harness.pool_idle_share", "ratio"},
    {"harness.allocs_per_seg", "count"},
    {"sim.events", "count"},
    {"sim.events_per_seg", "count"},
    {"sim.self_ns_per_event", "ns"},
    {"sim.heap_fallbacks", "count"},
    {"net.queue_ops", "count"},
    {"net.drop_ratio", "ratio"},
    {"net.queue_ns_per_op", "ns"},
    {"env.send_ns", "ns"},
    {"env.timer_arms_per_seg", "count"},
    {"tcp.rx_self_ns", "ns"},
    {"tcp.timer_fires", "count"},
    {"tcp.timeouts", "count"},
    {"tcp.rtx_ratio", "ratio"},
    {"core.recovery_episodes", "count"},
    {"core.rx_self_ns", "ns"},
    {"pdes.rounds", "count"},
    {"pdes.cross_pkts", "count"},
    {"pdes.cross_share", "ratio"},
    {"pdes.events_per_round", "count"},
    {"pdes.idle_share", "ratio"},
    {"live.poll_calls", "count"},
    {"live.idle_poll_ratio", "ratio"},
    {"live.poll_self_ns", "ns"},
    {"live.datagrams", "count"},
    {"live.decode_failures", "count"},
    {"live.unroutable", "count"},
    {"trace.overhead_share", "ratio"},
    {"trace.remainder_share", "ratio"},
};

// Rounds of untraced measurement a --trace 0 run always makes, even when
// one round outlasts --seconds; medians need at least three.
constexpr std::size_t kMinRounds = 3;
// A run stops starting rounds after this long whatever it has, so it ends
// well inside the 180 s a run may take.
constexpr double kHardCapS = 120.0;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// A fixed integer loop; its time tracks the host's speed between runs.
void host_probe() {
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double s = static_cast<double>(now_ns() - t0) / 1e9;
  std::printf("host_probe_s=%.4f (fixed xorshift loop, not a metric; checksum %llu)\n",
              s, static_cast<unsigned long long>(x & 0xffff));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Committed digests: lines of "<workload> <small|full> <hash>".
std::map<std::string, std::string> read_digests(const std::string& path, bool* ok) {
  std::map<std::string, std::string> out;
  std::ifstream in{path};
  *ok = static_cast<bool>(in);
  std::string w, size, hash;
  while (in >> w >> size >> hash) out[w + " " + size] = hash;
  return out;
}

void print_json_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"";
    s += metrics[i].first.name;
    s += "\": {\"value\": ";
    print_json_number(s, metrics[i].second);
    s += ", \"unit\": \"";
    s += metrics[i].first.unit;
    s += "\"}";
  }
  s += "}}";
  return s;
}

double throughput(WorkloadKind w, const RoundResult& r) {
  // The primary rate of each workload: host-time segment rate for the
  // simulator workloads, goodput for live.
  return w == WorkloadKind::kLiveLoopback
             ? ratio(static_cast<double>(r.goodput_bytes), r.wall_s)
             : ratio(static_cast<double>(r.segments), r.wall_s);
}

std::vector<std::pair<MetricDef, double>> end_to_end(
    const std::vector<RoundResult>& rounds, std::uint64_t attempted,
    std::uint64_t failed) {
  // Latency percentiles are taken per round and then, like every other
  // metric, their median over rounds: pooling all rounds' samples would let
  // one slow round (a busy host) set the tail.
  std::vector<double> setup, seg, good, p50, p95;
  std::size_t fewest = SIZE_MAX;
  double lowest_q = 1.0;
  for (const RoundResult& r : rounds) {
    setup.push_back(r.setup_s);
    seg.push_back(ratio(static_cast<double>(r.segments), r.wall_s));
    good.push_back(ratio(static_cast<double>(r.goodput_bytes), r.wall_s) / 1e6);
    const TailPercentile tail = tail_percentile(r.xfer_ms, 0.95);
    p50.push_back(quantile(r.xfer_ms, 0.5));
    p95.push_back(tail.value);
    fewest = std::min(fewest, r.xfer_ms.size());
    lowest_q = std::min(lowest_q, tail.q);
  }
  std::printf("xfer: per-round percentiles from at least %zu samples per round; the "
              "lowest percentile xfer_ms_p95 fell back to in any round: p%.2f (each keeps "
              "10 or more samples beyond it)\n",
              fewest, lowest_q * 100.0);
  const double values[] = {
      median(setup),
      median(seg),
      median(good),
      median(p50),
      median(p95),
      peak_rss_mb(),
      1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted)),
  };
  std::vector<std::pair<MetricDef, double>> out;
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
    out.emplace_back(kEndToEnd[i], values[i]);
  return out;
}

// Self-time table of the traced rounds. Every layer's self time plus the
// time no span covered ("unspanned": teardown, checks, the round loop) adds
// up to the traced rounds' wall time.
void print_trace_table(const SpanTotals& s, double traced_wall_ns, bool single_thread) {
  // Shares are of the round wall on one thread, of summed root-span
  // (thread) time when spans come from several threads.
  const double whole = single_thread ? traced_wall_ns : static_cast<double>(s.root_ns());
  std::printf("\ntraced self time by layer (all traced rounds):\n");
  std::printf("  %-14s %12s %12s %12s %8s\n", "layer", "calls", "incl_ms", "self_ms", "share");
  double self_sum = 0.0;
  for (std::size_t l = 1; l < kLayers; ++l) {
    const auto layer = static_cast<Layer>(l);
    if (s.n_calls(layer) == 0) continue;
    const double self = static_cast<double>(s.self_ns(layer));
    self_sum += self;
    std::printf("  %-14s %12llu %12.3f %12.3f %7.1f%%\n", layer_name(layer),
                static_cast<unsigned long long>(s.n_calls(layer)),
                static_cast<double>(s.incl_ns(layer)) / 1e6, self / 1e6,
                100.0 * ratio(self, whole));
  }
  if (single_thread) {
    const double unspanned = traced_wall_ns - self_sum;
    std::printf("  %-14s %12s %12s %12.3f %7.1f%%\n", "unspanned", "-", "-", unspanned / 1e6,
                100.0 * ratio(unspanned, traced_wall_ns));
    std::printf("  %-14s %12s %12s %12.3f %7.1f%%  (traced round wall)\n", "total", "-",
                "-", traced_wall_ns / 1e6, 100.0);
  } else {
    std::printf("  spans come from several threads: self times sum to %.3f ms of "
                "thread time against %.3f ms of round wall\n",
                self_sum / 1e6, traced_wall_ns / 1e6);
  }
}

std::vector<std::pair<MetricDef, double>> per_layer(
    WorkloadKind w, const std::vector<RoundResult>& untraced,
    const std::vector<RoundResult>& traced) {
  LayerRaw u;  // counters: untraced rounds (same counts, no tracing cost)
  LayerRaw t;  // spans: traced rounds
  std::uint64_t segs = 0;
  for (const RoundResult& r : untraced) {
    u.add(r.raw);
    segs += r.segments;
  }
  std::uint64_t traced_segs = 0;
  for (const RoundResult& r : traced) {
    t.add(r.raw);
    traced_segs += r.segments;
  }
  const auto n = static_cast<double>(untraced.size());
  const auto seg = static_cast<double>(segs);
  const SpanTotals& s = t.spans;
  auto self_per_call = [&s](Layer l) {
    return ratio(static_cast<double>(s.self_ns(l)), static_cast<double>(s.n_calls(l)));
  };
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  std::vector<double> tr_rate, un_rate;
  for (const RoundResult& r : untraced) un_rate.push_back(throughput(w, r));
  for (const RoundResult& r : traced) tr_rate.push_back(throughput(w, r));
  const Layer root =
      w == WorkloadKind::kLiveLoopback ? Layer::kLiveLoop : Layer::kSimRun;
  const bool sharded = u.shards > 1;

  const double values[] = {
      ratio(d(u.build_ns), d(u.builds)) / 1e6,
      ratio(d(u.build_ns), d(u.job_ns)),
      u.pool_wall_ns > 0 ? 1.0 - ratio(d(u.job_ns), d(u.pool_wall_ns) * d(u.pool_threads))
                         : 0.0,
      ratio(d(u.allocs), seg),
      ratio(d(u.events), n),
      ratio(d(u.events), seg),
      ratio(d(s.self_ns(Layer::kSimRun)), d(t.events)),
      ratio(d(u.heap_fallbacks), n),
      ratio(d(u.queue_arrivals + u.queue_dequeues), n),
      ratio(d(u.queue_drops), d(u.queue_arrivals)),
      self_per_call(Layer::kNetQueue),
      self_per_call(Layer::kEnvSend),
      ratio(d(s.timer_arms), d(traced_segs)),
      self_per_call(Layer::kTcpRx),
      ratio(d(s.n_calls(Layer::kTcpTimer)), d(traced.size())),
      ratio(d(u.timeouts), n),
      ratio(d(u.rtx), seg),
      ratio(d(u.rr_episodes), n),
      self_per_call(Layer::kCoreRx),
      ratio(d(u.pdes_rounds), n),
      ratio(d(u.cross_pkts), n),
      ratio(d(u.cross_pkts), d(u.link_traversals)),
      ratio(d(u.events), d(u.pdes_rounds)),
      sharded ? 1.0 - ratio(d(u.run_cpu_ns), d(u.run_ns) * d(u.shards)) : 0.0,
      ratio(d(u.polls), n),
      ratio(d(u.idle_polls), d(u.polls)),
      self_per_call(Layer::kLivePoll),
      ratio(d(u.datagrams), n),
      ratio(d(u.decode_failures), n),
      ratio(d(u.unroutable), n),
      1.0 - ratio(median(tr_rate), median(un_rate)),
      ratio(d(s.self_ns(root)), d(s.root_ns())),
  };
  static_assert(std::size(values) == std::size(kPerLayer));
  std::vector<std::pair<MetricDef, double>> out;
  for (std::size_t i = 0; i < std::size(kPerLayer); ++i)
    out.emplace_back(kPerLayer[i], values[i]);
  return out;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--digests PATH\n       %s --list-metrics | --emit-digests\n",
               argv0, argv0);
  return 2;
}

int emit_digests() {
  for (const WorkloadKind w : kAllWorkloads) {
    for (const Size size : {Size::kSmall, Size::kFull}) {
      const RoundResult r = make_workload(w, kDefaultSeed, size)->round(false);
      std::printf("%s %s %s\n", workload_name(w), size == Size::kSmall ? "small" : "full",
                  r.digest.hash().c_str());
      std::fflush(stdout);
    }
  }
  return 0;
}

int run(WorkloadKind kind, std::uint64_t seed, double seconds, bool trace,
        const std::string& digest_path) {
  const char* name = workload_name(kind);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d hardware_threads=%u\n",
              name, static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0,
              std::thread::hardware_concurrency());
  bool have_file = false;
  const auto committed = read_digests(digest_path, &have_file);
  if (!have_file) {
    std::fprintf(stderr, "perfbench: cannot read digest file %s\n", digest_path.c_str());
    return 2;
  }
  host_probe();

  // Default-seed digest check on the small cut; doubles as the warm-up.
  // With --trace 1 the small cut also runs traced: the decorators must not
  // change what is simulated.
  bool traced_matches = true;
  {
    auto small = make_workload(kind, kDefaultSeed, Size::kSmall);
    const RoundResult a = small->round(false);
    const std::string want = committed.count(std::string{name} + " small")
                                 ? committed.at(std::string{name} + " small")
                                 : "(none)";
    std::printf("digest_check small default-seed: %s (committed %s) %s\n",
                a.digest.hash().c_str(), want.c_str(),
                a.digest.hash() == want ? "match" : "MISMATCH: simulated behaviour changed");
    if (trace) {
      const RoundResult b = small->round(true);
      traced_matches = b.digest == a.digest;
      std::printf("traced small digest: %s %s\n", b.digest.hash().c_str(),
                  traced_matches ? "equals untraced" : "DIFFERS from untraced");
    }
    collect_spans();
  }

  auto w = make_workload(kind, seed, Size::kFull);
  std::printf("inputs: %s\n", w->describe().c_str());

  std::vector<RoundResult> untraced, traced;
  double traced_wall_ns = 0.0;
  const std::int64_t start = now_ns();
  for (int i = 0;; ++i) {
    const bool tr = trace && i % 2 == 1;
    collect_spans();
    const std::int64_t r0 = now_ns();
    RoundResult r = w->round(tr);
    const double round_ns = static_cast<double>(now_ns() - r0);
    if (tr) {
      r.raw.spans = collect_spans();
      traced_wall_ns += round_ns;
    }
    std::printf("round %d%s: wall_s=%.4f setup_s=%.4f segments=%llu failed=%llu %s\n", i,
                tr ? " (traced)" : "", r.wall_s, r.setup_s,
                static_cast<unsigned long long>(r.segments),
                static_cast<unsigned long long>(r.failed), r.note.c_str());
    std::fflush(stdout);
    (tr ? traced : untraced).push_back(std::move(r));
    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    const bool enough = trace ? !traced.empty() : untraced.size() >= kMinRounds;
    if ((elapsed >= seconds && enough) || elapsed > kHardCapS) break;
  }

  std::uint64_t attempted = 0, failed = 0;
  bool stable = true;
  const Digest& first = untraced.front().digest;
  for (const auto* set : {&untraced, &traced}) {
    for (const RoundResult& r : *set) {
      attempted += r.attempted;
      failed += r.failed;
      stable = stable && r.digest == first;
    }
  }
  std::printf("\ndigest %s (per variant, one round of this seed's inputs):\n%s",
              first.hash().c_str(), first.text().c_str());
  if (seed == kDefaultSeed) {
    const std::string key = std::string{name} + " full";
    const std::string want = committed.count(key) ? committed.at(key) : "(none)";
    std::printf("digest_check full default-seed: committed %s %s\n", want.c_str(),
                first.hash() == want ? "match" : "MISMATCH: simulated behaviour changed");
  }
  std::printf("rounds: %zu untraced, %zu traced; every round's digest %s\n",
              untraced.size(), traced.size(),
              stable ? "identical" : "DIFFERS (nondeterminism or a failed output)");

  std::vector<std::pair<MetricDef, double>> metrics;
  if (trace) {
    const bool single_thread = kind == WorkloadKind::kFleetSingle ||
                               kind == WorkloadKind::kLiveLoopback;
    SpanTotals spans;
    for (const RoundResult& r : traced) spans.add(r.raw.spans);
    print_trace_table(spans, traced_wall_ns, single_thread);
    metrics = per_layer(kind, untraced, traced);
  } else {
    metrics = end_to_end(untraced, attempted, failed);
  }
  std::printf("\n");
  for (const auto& [def, v] : metrics) std::printf("  %-26s %14.6g %s\n", def.name, v, def.unit);
  const bool correct = failed == 0 && stable && traced_matches;
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, digests;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      for (const MetricDef& m : kEndToEnd) std::printf("end_to_end %s %s\n", m.name, m.unit);
      for (const MetricDef& m : kPerLayer) std::printf("per_layer %s %s\n", m.name, m.unit);
      return 0;
    }
    if (a == "--emit-digests") return emit_digests();
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--digests") {
      digests = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return usage(argv[0]);
    } else if (a == "--seconds") {
      seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || seconds <= 0) return usage(argv[0]);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage(argv[0]);
      trace = v == "1" ? 1 : 0;
    } else {
      return usage(argv[0]);
    }
  }
  const auto kind = parse_workload(workload);
  if (!kind || digests.empty()) return usage(argv[0]);
  return run(*kind, seed, seconds, trace == 1, digests);
}
