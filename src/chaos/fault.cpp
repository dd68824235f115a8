#include "chaos/fault.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "sim/assert.hpp"
#include "sim/log.hpp"

namespace rrtcp::chaos {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kOutage:
      return "outage";
    case FaultKind::kBlackhole:
      return "blackhole";
    case FaultKind::kAckLoss:
      return "ackloss";
    case FaultKind::kAckDuplicate:
      return "ackdup";
    case FaultKind::kBurstLoss:
      return "burst";
    case FaultKind::kDelaySpike:
      return "delayspike";
    case FaultKind::kCount:
      break;
  }
  return "?";
}

bool fault_kind_from_string(std::string_view name, FaultKind* out) {
  for (int k = 0; k < static_cast<int>(FaultKind::kCount); ++k) {
    if (name == to_string(static_cast<FaultKind>(k))) {
      *out = static_cast<FaultKind>(k);
      return true;
    }
  }
  return false;
}

const char* to_string(FaultPath p) {
  return p == FaultPath::kData ? "data" : "ack";
}

bool fault_path_from_string(std::string_view name, FaultPath* out) {
  if (name == "data") {
    *out = FaultPath::kData;
    return true;
  }
  if (name == "ack") {
    *out = FaultPath::kAck;
    return true;
  }
  return false;
}

bool FaultSpec::active_at(sim::Time now) const {
  if (now < start) return false;
  if (period > sim::Time::zero()) {
    // Flapping: the window [0, duration) repeats every period.
    const std::int64_t cycles = (now - start) / period;
    const sim::Time phase = now - start - period * cycles;
    return phase < duration;
  }
  return now < start + duration;
}

std::string FaultSpec::describe() const {
  char buf[160];
  int n = std::snprintf(buf, sizeof buf, "%s@%.3fs+%.3fs", to_string(kind),
                        start.to_seconds(), duration.to_seconds());
  auto append = [&](const char* fmt, auto... args) {
    n += std::snprintf(buf + n, sizeof buf - static_cast<std::size_t>(n), fmt,
                       args...);
  };
  if (period > sim::Time::zero()) append("/%.3fs", period.to_seconds());
  switch (kind) {
    case FaultKind::kAckLoss:
    case FaultKind::kAckDuplicate:
      append(" p=%.2f", probability);
      break;
    case FaultKind::kDelaySpike:
      append(" p=%.2f d=%.3fs", probability, extra_delay.to_seconds());
      break;
    case FaultKind::kBurstLoss:
      append(" ge=%.2f/%.2f/%.2f", p_enter_bad, p_exit_bad, loss_in_bad);
      break;
    default:
      break;
  }
  append("[%s]", path == FaultPath::kData ? "data" : "ack");
  return buf;
}

std::string FaultSpec::to_text() const {
  // "%.17g" round-trips every finite double bit-for-bit, so a replayed
  // spec drives byte-identical RNG draws.
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "kind=%s path=%s start_ps=%lld dur_ps=%lld period_ps=%lld "
                "p=%.17g delay_ps=%lld enter=%.17g exit=%.17g loss=%.17g "
                "data_only=%d",
                to_string(kind), to_string(path),
                static_cast<long long>(start.ps()),
                static_cast<long long>(duration.ps()),
                static_cast<long long>(period.ps()), probability,
                static_cast<long long>(extra_delay.ps()), p_enter_bad,
                p_exit_bad, loss_in_bad, data_only ? 1 : 0);
  return buf;
}

bool FaultSpec::from_text(std::string_view line, FaultSpec* out) {
  FaultSpec s;
  bool saw_kind = false;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
    if (pos >= line.size()) break;
    std::size_t end = line.find(' ', pos);
    if (end == std::string_view::npos) end = line.size();
    const std::string_view token = line.substr(pos, end - pos);
    pos = end;

    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) return false;
    const std::string_view key = token.substr(0, eq);
    const std::string value{token.substr(eq + 1)};  // NUL-terminated for strto*
    char* rest = nullptr;
    auto as_ps = [&rest, &value]() {
      return sim::Time::picoseconds(std::strtoll(value.c_str(), &rest, 10));
    };
    auto as_double = [&rest, &value]() {
      return std::strtod(value.c_str(), &rest);
    };
    rest = nullptr;
    if (key == "kind") {
      if (!fault_kind_from_string(value, &s.kind)) return false;
      saw_kind = true;
    } else if (key == "path") {
      if (!fault_path_from_string(value, &s.path)) return false;
    } else if (key == "start_ps") {
      s.start = as_ps();
    } else if (key == "dur_ps") {
      s.duration = as_ps();
    } else if (key == "period_ps") {
      s.period = as_ps();
    } else if (key == "p") {
      s.probability = as_double();
    } else if (key == "delay_ps") {
      s.extra_delay = as_ps();
    } else if (key == "enter") {
      s.p_enter_bad = as_double();
    } else if (key == "exit") {
      s.p_exit_bad = as_double();
    } else if (key == "loss") {
      s.loss_in_bad = as_double();
    } else if (key == "data_only") {
      s.data_only = value == "1";
      if (value != "0" && value != "1") return false;
    } else {
      return false;
    }
    // Numeric keys must consume their whole value ("start_ps=12x" is a
    // corrupt file, not a 12).
    if (rest != nullptr && (rest == value.c_str() || *rest != '\0'))
      return false;
  }
  if (!saw_kind) return false;
  *out = s;
  return true;
}

FaultPlan FaultPlan::subset(FaultPath p) const {
  FaultPlan out;
  for (const FaultSpec& s : faults)
    if (s.path == p) out.faults.push_back(s);
  return out;
}

std::string FaultPlan::describe() const {
  if (faults.empty()) return "(no faults)";
  std::string out;
  for (const FaultSpec& s : faults) {
    if (!out.empty()) out += "; ";
    out += s.describe();
  }
  return out;
}

FaultPlan make_random_plan(std::uint64_t seed, const PlanBounds& b) {
  RRTCP_ASSERT(b.min_faults >= 0 && b.min_faults <= b.max_faults);
  RRTCP_ASSERT(b.earliest <= b.latest);
  RRTCP_ASSERT(b.min_duration <= b.max_duration);
  sim::Rng rng{seed, "fault-plan"};

  auto pick_time = [&rng](sim::Time lo, sim::Time hi) {
    return sim::Time::picoseconds(static_cast<std::int64_t>(rng.uniform_int(
        static_cast<std::uint64_t>(lo.ps()),
        static_cast<std::uint64_t>(hi.ps()))));
  };

  FaultPlan plan;
  const int n = b.min_faults + static_cast<int>(rng.uniform_int(
                                   0, static_cast<std::uint64_t>(
                                          b.max_faults - b.min_faults)));
  for (int i = 0; i < n; ++i) {
    FaultSpec s;
    s.kind = static_cast<FaultKind>(
        rng.uniform_int(0, static_cast<std::uint64_t>(FaultKind::kCount) - 1));
    s.start = pick_time(b.earliest, b.latest);
    s.duration = pick_time(b.min_duration, b.max_duration);
    switch (s.kind) {
      case FaultKind::kOutage:
        // Either path can lose carrier; half the outages flap forever with
        // a duty cycle of at most 1/2 (period >= 2 x duration), so a flow
        // always gets windows of connectivity to recover in.
        s.path = rng.bernoulli(0.3) ? FaultPath::kAck : FaultPath::kData;
        if (rng.bernoulli(0.5))
          s.period = s.duration * static_cast<std::int64_t>(
                                      2 + rng.uniform_int(0, 2));
        break;
      case FaultKind::kBlackhole:
        s.path = FaultPath::kData;
        break;
      case FaultKind::kAckLoss:
        s.path = FaultPath::kAck;
        s.probability = 0.05 + 0.25 * rng.uniform01();
        break;
      case FaultKind::kAckDuplicate:
        s.path = FaultPath::kAck;
        s.probability = 0.05 + 0.25 * rng.uniform01();
        break;
      case FaultKind::kBurstLoss:
        s.path = FaultPath::kData;
        s.data_only = true;
        s.p_enter_bad = 0.05 + 0.15 * rng.uniform01();
        s.p_exit_bad = 0.3 + 0.4 * rng.uniform01();
        s.loss_in_bad = 0.5 + 0.5 * rng.uniform01();
        break;
      case FaultKind::kDelaySpike:
        s.path = rng.bernoulli(0.3) ? FaultPath::kAck : FaultPath::kData;
        s.probability = 0.1 + 0.4 * rng.uniform01();
        s.extra_delay = pick_time(b.min_delay_spike, b.max_delay_spike);
        break;
      case FaultKind::kCount:
        break;
    }
    plan.faults.push_back(s);
  }
  return plan;
}

// ---------------------------------------------------------------------------
// FaultInjector

namespace {

std::string stream_name(const std::string& base, std::size_t index) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s/spec%zu", base.c_str(), index);
  return buf;
}

}  // namespace

FaultInjector::FaultInjector(sim::Simulator& sim, net::PacketHandler& inner,
                             FaultPlan plan, std::uint64_t seed,
                             std::string name)
    : sim_{sim},
      inner_{inner},
      plan_{std::move(plan)},
      name_{std::move(name)},
      spiked_{sim, [this](sim::Time, net::Packet& p) {
                emerge(std::move(p), false);
              }},
      spiked_dup_{sim, [this](sim::Time, net::Packet& p) {
                    emerge(std::move(p), true);
                  }} {
  specs_.reserve(plan_.faults.size());
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    // One named stream per spec: draws for spec i never depend on how many
    // packets the other specs consulted, so plans compose reproducibly.
    specs_.push_back(
        {plan_.faults[i], sim::Rng{seed, stream_name(name_, i)}, false});
  }
}

void FaultInjector::send(net::Packet p) {
  const sim::Time now = sim_.now();
  bool drop = false;
  bool duplicate = false;
  sim::Time extra = sim::Time::zero();

  // Every active spec is consulted even once the packet is already doomed,
  // so each spec's RNG consumption depends only on the packet stream it
  // sees — never on the other specs in the plan.
  for (ArmedSpec& a : specs_) {
    const FaultSpec& s = a.spec;
    if (!s.active_at(now)) continue;
    switch (s.kind) {
      case FaultKind::kOutage:
      case FaultKind::kBlackhole:
        drop = true;
        break;
      case FaultKind::kAckLoss:
        if (p.is_ack() && a.rng.bernoulli(s.probability)) drop = true;
        break;
      case FaultKind::kAckDuplicate:
        if (p.is_ack() && a.rng.bernoulli(s.probability)) duplicate = true;
        break;
      case FaultKind::kBurstLoss:
        if (s.data_only && !p.is_data()) break;
        // Advance the Gilbert-Elliott chain one step per consulted packet.
        a.bad = a.bad ? !a.rng.bernoulli(s.p_exit_bad)
                      : a.rng.bernoulli(s.p_enter_bad);
        if (a.bad && a.rng.bernoulli(s.loss_in_bad)) drop = true;
        break;
      case FaultKind::kDelaySpike:
        if (a.rng.bernoulli(s.probability))
          extra = std::max(extra, s.extra_delay);
        break;
      case FaultKind::kCount:
        break;
    }
  }

  if (drop) {
    ++dropped_;
    RRTCP_TRACE(now, name_.c_str(), "drop %s seq=%llu",
                p.is_ack() ? "ack" : "data",
                static_cast<unsigned long long>(p.is_ack() ? p.tcp.ack
                                                           : p.tcp.seq));
    return;
  }

  if (extra > sim::Time::zero()) {
    ++delayed_;
    // The held packet is still "before" the wrapped link: when it emerges
    // it re-checks the drop windows (emerge()), so a spike cannot carry a
    // packet across the start of a blackhole.
    (duplicate ? spiked_dup_ : spiked_).push(now + extra, std::move(p));
    return;
  }

  forward(std::move(p), duplicate);
}

bool FaultInjector::blackholed(sim::Time now) const {
  for (const ArmedSpec& a : specs_) {
    if (a.spec.kind == FaultKind::kBlackhole && a.spec.active_at(now))
      return true;
  }
  return false;
}

void FaultInjector::emerge(net::Packet p, bool duplicate) {
  if (blackholed(sim_.now())) {
    ++dropped_;
    return;
  }
  forward(std::move(p), duplicate);
}

void FaultInjector::forward(net::Packet p, bool duplicate) {
  ++forwarded_;
  if (duplicate) {
    ++duplicated_;
    net::Packet copy = p;
    inner_.send(std::move(p));
    inner_.send(std::move(copy));
    return;
  }
  inner_.send(std::move(p));
}

int interpose(net::Node& node, net::PacketHandler& wrapped,
              FaultInjector& injector) {
  const int n = node.replace_route_target(&wrapped, &injector);
  RRTCP_ASSERT_MSG(n > 0, "interpose found no route through the wrapped link");
  return n;
}

}  // namespace rrtcp::chaos
