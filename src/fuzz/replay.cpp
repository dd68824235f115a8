#include "fuzz/replay.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "fuzz/runner.hpp"
#include "fuzz/serialize.hpp"

namespace rrtcp::fuzz {

ReplayArg classify_replay_arg(std::string_view arg) {
  ReplayArg out;
  out.path = std::string{arg};
  if (arg.empty()) return out;
  std::string_view digits = arg;
  bool hex = false;
  if (digits.size() > 2 && (digits.substr(0, 2) == "0x" ||
                            digits.substr(0, 2) == "0X")) {
    hex = true;
    digits.remove_prefix(2);
  }
  if (digits.empty()) return out;
  for (const char c : digits) {
    const bool dec = c >= '0' && c <= '9';
    const bool hexdig =
        dec || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
    if (!(hex ? hexdig : dec)) return out;
  }
  out.is_seed = true;
  out.seed = std::strtoull(std::string{arg}.c_str(), nullptr, 0);
  return out;
}

int replay_repro_file(const std::string& path) {
  ReplayCase rc;
  std::string error;
  if (!load_replay_file(path, &rc, &error)) {
    std::fprintf(stderr, "replay: %s: %s\n", path.c_str(), error.c_str());
    return 2;
  }

  const CaseSpec& cs = rc.spec;
  std::printf("replaying %s\n", path.c_str());
  std::printf(
      "  case: seed=%" PRIu64 " who=%s topo=%s flows=%d faults=%zu "
      "horizon=%.1fs\n",
      cs.seed, cs.mutant.empty() ? app::to_string(cs.variant)
                                 : cs.mutant.c_str(),
      to_string(cs.topo), cs.n_flows, cs.plan.faults.size(),
      cs.horizon.to_seconds());

  const RunOutcome out = run_case(cs);
  std::set<std::string> hit;
  for (const Failure& f : out.failures) {
    hit.insert(bucket_key(cs, f));
    std::printf("  %s/%s: %s\n", to_string(f.kind), f.id.c_str(),
                f.detail.c_str());
  }

  int missing = 0;
  for (const std::string& want : rc.expect) {
    if (hit.count(want) != 0) continue;
    ++missing;
    std::printf("  MISSING expected bucket %s\n", want.c_str());
  }
  if (!rc.expect.empty()) {
    const bool ok = missing == 0;
    std::printf("verdict: %s (%zu/%zu expected bucket(s) hit, %zu total)\n",
                ok ? "REPRODUCED" : "NOT REPRODUCED",
                rc.expect.size() - static_cast<std::size_t>(missing),
                rc.expect.size(), hit.size());
    return ok ? 0 : 1;
  }
  const bool clean = out.failures.empty();
  std::printf("verdict: %s (no expectations; %zu failure(s))\n",
              clean ? "CLEAN" : "FAILED", out.failures.size());
  return clean ? 0 : 1;
}

int replay_chaos_seed(std::uint64_t plan_seed,
                      const harness::ChaosSoakOptions& opts) {
  const chaos::FaultPlan plan =
      chaos::make_random_plan(plan_seed, opts.bounds);
  std::printf("replaying chaos plan seed 0x%016" PRIx64 ": %s\n", plan_seed,
              plan.describe().c_str());
  int failures = 0;
  for (const app::Variant v : opts.variants) {
    harness::ChaosRunConfig cfg = opts.base;
    cfg.variant = v;
    std::vector<chaos::WatchdogReport> reports;
    std::vector<audit::Violation> violations;
    const harness::ChaosRunOutcome out = harness::run_chaos_schedule(
        plan, plan_seed, harness::chaos_spec(cfg), &reports, &violations);
    std::printf(
        "  %-8s %s: complete=%d alive=%d dead=%d timeouts=%" PRIu64
        " rtx=%" PRIu64 " drops=%" PRIu64 " violations=%" PRIu64
        " watchdog=%" PRIu64 "\n",
        app::to_string(v), out.graceful ? "GRACEFUL" : "FAILED",
        out.flows_complete, out.flows_alive, out.flows_dead, out.timeouts,
        out.retransmissions, out.fault_drops, out.audit_violations,
        out.watchdog_reports);
    for (const audit::Violation& viol : violations)
      std::printf("    audit %s t=%.6fs: %s\n", audit::to_string(viol.id),
                  viol.t.to_seconds(), viol.detail.c_str());
    for (const chaos::WatchdogReport& r : reports)
      std::printf("    %s t=%.6fs %s: %s\n", chaos::to_string(r.id),
                  r.t.to_seconds(), r.who.c_str(), r.detail.c_str());
    if (!out.graceful) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

int replay_main(const std::string& arg,
                const harness::ChaosSoakOptions& chaos_opts) {
  const ReplayArg parsed = classify_replay_arg(arg);
  if (parsed.is_seed) return replay_chaos_seed(parsed.seed, chaos_opts);
  return replay_repro_file(parsed.path);
}

}  // namespace rrtcp::fuzz
