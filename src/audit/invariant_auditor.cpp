#include "audit/invariant_auditor.hpp"

#include <algorithm>
#include <cstdarg>

#include "net/drop_tail.hpp"
#include "net/red.hpp"
#include "sim/assert.hpp"

namespace rrtcp::audit {

namespace {

struct IdInfo {
  const char* name;
  const char* cite;
};

// Citations are sections of Wang & Shin, "Robust TCP Congestion Recovery",
// ICDCS 2001, unless another source is named.
constexpr IdInfo kIdInfo[] = {
    {"SEQ_ORDER", "§2.1 sequence conventions"},
    {"ACKED_TOTAL", "§2.1 cumulative ACKs"},
    {"WND_FLOOR", "§2.2 ssthresh=win/2 floor; RFC 5681 §3.1"},
    {"WND_GROWTH", "§2.2.2 linear probing"},
    {"TO_COLLAPSE", "§2 coarse timeout -> slow start"},
    {"RR_RECOVER_MONO", "§2.2.2 recover advances to maxseq"},
    {"RR_ACT_BOUND", "§2.2 Table 2: actnum counts packets in flight"},
    {"RR_ACT_LINEAR", "§2.2.2 actnum += 1 per clean RTT"},
    {"RR_RETREAT_HALF", "§2.2.1 one new packet per two dup ACKs"},
    {"RR_PROBE_CLOCK", "§2.2.2 one new packet per dup ACK"},
    {"RR_CWND_FROZEN", "§2.2 cwnd untouched during recovery"},
    {"RR_EXIT_CWND", "§2.2.2 exit: cwnd = actnum x MSS"},
    {"RR_EXIT_BURST", "§2.2.3 no big-ACK burst at exit"},
    {"RR_SSTHRESH_HALVE", "§2.2 entrance: ssthresh = win/2"},
    {"PIPE_ACCOUNT", "§2.1 conservation of packets"},
    {"PIPE_DORMANT", "§2.1 dormant packets parked at the receiver"},
    {"PIPE_CONSERVE", "§2.1 conservation of packets"},
    {"Q_CONSERVE", "Table 3 FIFO gateways: enq - deq = occupancy"},
    {"Q_CAPACITY", "Table 3 buffer sizes in packets"},
    {"RED_AVG_RANGE", "Floyd & Jacobson 1993 §4; Table 4"},
    {"RED_DROP_REGION", "Floyd & Jacobson 1993 §4: drop only if avg >= min_th"},
    {"RTO_ARMED", "§2 coarse timeout as last-resort recovery; RFC 6298 §5"},
    {"RTO_BACKOFF", "Karn & Partridge 1987; RFC 6298 §5.5 exponential backoff"},
};
static_assert(std::size(kIdInfo) == static_cast<std::size_t>(InvariantId::kCount));

// Cap on stored Violation entries in kRecord mode; a broken sender can
// violate on every packet of a long run and we only need enough to assert on.
constexpr std::size_t kMaxRecorded = 256;

}  // namespace

const char* to_string(InvariantId id) {
  return kIdInfo[static_cast<std::size_t>(id)].name;
}

const char* citation(InvariantId id) {
  return kIdInfo[static_cast<std::size_t>(id)].cite;
}

void EventRing::dump(std::FILE* out) const {
  // Entry values by kind — send/rtx: a=seq b=len c=snd_nxt; ack/dup: a=ackno
  // b=snd_una c=cwnd; phase: a=phase; cwnd: a=new bytes b=prev bytes;
  // timeout: a=snd_una; enq/deq/drop: a=pkt seq b=queue len c=uid.
  std::fprintf(out, "  last %zu audit events (oldest first):\n", size());
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    const AuditEvent& e = ring_[(head_ - n + i) % kCapacity];
    std::fprintf(out, "    [%14.9fs] %-12s %-5s a=%llu b=%llu c=%llu\n",
                 e.t.to_seconds(), e.who, e.kind,
                 static_cast<unsigned long long>(e.a),
                 static_cast<unsigned long long>(e.b),
                 static_cast<unsigned long long>(e.c));
  }
}

// ---------------------------------------------------------------------------
// AuditSession

AuditSession::AuditSession(sim::Simulator& sim, FailMode mode)
    : sim_{sim}, mode_{mode} {
  prev_context_arg_ = detail::assert_context_arg;
  prev_context_ = set_assert_context(&AuditSession::dump_thunk, this);
}

AuditSession::~AuditSession() {
  set_assert_context(prev_context_, prev_context_arg_);
  for (auto& a : sender_auditors_) a->detach();
  for (auto& q : queue_auditors_) q->detach();
}

void AuditSession::dump_thunk(void* self, std::FILE* out) {
  static_cast<AuditSession*>(self)->dump(out);
}

void AuditSession::dump(std::FILE* out) const {
  std::fprintf(out, "audit session: t=%.9fs, %llu violation(s)\n",
               sim_.now().to_seconds(),
               static_cast<unsigned long long>(total_violations_));
  ring_.dump(out);
}

void AuditSession::fail(InvariantId id, sim::Time t, const char* fmt, ...) {
  char detail[512];
  std::va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(detail, sizeof detail, fmt, ap);
  va_end(ap);

  ++total_violations_;
  if (mode_ == FailMode::kAbort) {
    char msg[640];
    std::snprintf(msg, sizeof msg, "t=%.9fs: %s [%s]", t.to_seconds(), detail,
                  citation(id));
    RR_AUDIT_FAIL(to_string(id), msg);
  }
  if (violations_.size() < kMaxRecorded)
    violations_.push_back({id, t, detail});
}

std::size_t AuditSession::count(InvariantId id) const {
  return static_cast<std::size_t>(
      std::count_if(violations_.begin(), violations_.end(),
                    [id](const Violation& v) { return v.id == id; }));
}

void AuditSession::attach(tcp::TcpSenderBase& sender,
                          tcp::TcpReceiver* receiver) {
  sender_auditors_.push_back(
      std::make_unique<InvariantAuditor>(*this, sender, receiver));
  sender.add_observer(sender_auditors_.back().get());
  if (receiver != nullptr) {
    receivers_.push_back({receiver, receiver->stats().data_packets});
  } else {
    // Without the peer we cannot see this flow's deliveries, so the
    // aggregate send/deliver/drop balance is no longer computable.
    pipe_enabled_ = false;
  }
}

void AuditSession::attach_queue(net::QueueDisc& queue, const char* name) {
  queue_auditors_.push_back(
      std::make_unique<QueueAuditor>(*this, queue, name));
  queue.set_observer(queue_auditors_.back().get());
}

void AuditSession::attach_link(net::Link& link, const char* name) {
  attach_queue(link.queue(), name);
  loss_links_.push_back({&link, link.loss_model_data_drops()});
}

void AuditSession::pipe_check(sim::Time t) {
  // Aggregate conservation over the attached flows: every data copy that
  // leaves the network was either delivered or dropped somewhere we watch,
  // so deliveries + watched drops can never exceed transmissions. Drops at
  // unwatched points only make the inequality slacker, never tighter —
  // attaching a subset of queues cannot produce a false positive. Requires
  // every sender in the simulation to be attached with its receiver
  // (AuditSession::attach pairs them; scenario/bench attach all flows).
  if (!pipe_enabled_ || sender_auditors_.empty()) return;
  std::uint64_t sent = 0, delivered = 0, dropped = 0;
  for (const auto& a : sender_auditors_) sent += a->data_sends();
  for (const auto& r : receivers_)
    delivered += r.receiver->stats().data_packets - r.base_data_packets;
  for (const auto& q : queue_auditors_) dropped += q->data_drops();
  for (const auto& l : loss_links_)
    dropped += l.link->loss_model_data_drops() - l.base_drops;
  if (delivered + dropped > sent) {
    fail(InvariantId::kPipeConserve, t,
         "delivered=%llu + dropped=%llu > sent=%llu",
         static_cast<unsigned long long>(delivered),
         static_cast<unsigned long long>(dropped),
         static_cast<unsigned long long>(sent));
  }
}

// ---------------------------------------------------------------------------
// InvariantAuditor (sender side)

InvariantAuditor::InvariantAuditor(AuditSession& session,
                                   tcp::TcpSenderBase& sender,
                                   tcp::TcpReceiver* receiver)
    : session_{session},
      sender_{sender},
      rr_{dynamic_cast<core::RrSender*>(&sender)},
      receiver_{receiver},
      last_una_{sender.snd_una()},
      last_cwnd_{sender.cwnd_bytes()} {}

void InvariantAuditor::detach() { sender_.remove_observer(this); }

bool InvariantAuditor::in_recovery_phase(tcp::TcpPhase p) const {
  return p == tcp::TcpPhase::kFastRecovery || p == tcp::TcpPhase::kRetreat ||
         p == tcp::TcpPhase::kProbe;
}

void InvariantAuditor::on_send(sim::Time now, std::uint64_t seq,
                               std::uint32_t len, bool rtx) {
  session_.note({now, rtx ? "rtx" : "send", sender_.variant_name(), seq, len,
                 sender_.snd_nxt()});
  ++data_sends_;

  // The base arms the retransmission timer before notifying, so any send
  // observed without a pending timer means the sender disarmed its own
  // escape hatch.
  if (!sender_.rto_pending()) {
    session_.fail(InvariantId::kRtoArmed, now,
                  "send at seq=%llu with no RTO timer pending",
                  static_cast<unsigned long long>(seq));
  }
  // The first send after a timeout is the go-back-N retransmission; by then
  // the back-off count must have grown, or rto() is already pinned at
  // max_rto where backoff() saturates by design. Comparing the count, not
  // rto(), because the min_rto floor can mask an early doubling (250ms
  // doubled to 500ms still clamps to a 1s floor).
  if (backoff_check_pending_) {
    const int after = sender_.rto_estimator().backoff_count();
    if (after <= pre_timeout_backoff_ &&
        sender_.rto_estimator().rto() < sender_.config().max_rto) {
      session_.fail(InvariantId::kRtoBackoff, now,
                    "backoff count %d -> %d across a timeout (RTO %.3fs, "
                    "max %.3fs)",
                    pre_timeout_backoff_, after,
                    sender_.rto_estimator().rto().to_seconds(),
                    sender_.config().max_rto.to_seconds());
    }
    backoff_check_pending_ = false;
  }

  // notify_send fires before snd_nxt advances: a first transmission starts
  // exactly at snd_nxt; a retransmission resends data below max_sent.
  if (!rtx) {
    if (seq != sender_.snd_nxt()) {
      session_.fail(InvariantId::kSeqOrder, now,
                    "new send at seq=%llu but snd_nxt=%llu",
                    static_cast<unsigned long long>(seq),
                    static_cast<unsigned long long>(sender_.snd_nxt()));
    }
  } else if (seq < sender_.snd_una() || seq >= sender_.max_sent()) {
    session_.fail(InvariantId::kSeqOrder, now,
                  "rtx at seq=%llu outside [una=%llu, max_sent=%llu)",
                  static_cast<unsigned long long>(seq),
                  static_cast<unsigned long long>(sender_.snd_una()),
                  static_cast<unsigned long long>(sender_.max_sent()));
  }

  if (rr_ == nullptr || rtx) return;
  if (rr_->in_recovery()) {
    // During recovery, transmission is actnum/self-clock controlled: each
    // ACK event may release at most one new packet (retreat: one per TWO
    // dup ACKs; probe: one per dup ACK or the +1 boundary probe).
    ++new_sends_this_event_;
    if (new_sends_this_event_ > 1) {
      session_.fail(InvariantId::kRrProbeClock, now,
                    "%d new packets released by one ACK during recovery",
                    new_sends_this_event_);
    }
    if (rr_->in_retreat()) {
      ++retreat_new_sends_;
      if (2 * retreat_new_sends_ > rr_->ndup()) {
        session_.fail(InvariantId::kRrRetreatHalf, now,
                      "retreat sent %ld new packets on only %ld dup ACKs",
                      retreat_new_sends_, rr_->ndup());
      }
    }
  } else if (exit_event_) {
    // Sends released by the ACK that exited recovery (after cwnd was handed
    // actnum x MSS): bounded by maxburst, the burst the accurate in-flight
    // count is meant to prevent.
    ++exit_sends_;
  }
}

void InvariantAuditor::on_ack(sim::Time now, std::uint64_t ack, bool dup) {
  session_.note({now, dup ? "dup" : "ack", sender_.variant_name(), ack,
                 sender_.snd_una(), sender_.cwnd_bytes()});
  new_sends_this_event_ = 0;
  exit_sends_ = 0;
  exit_event_ = false;
}

void InvariantAuditor::on_phase(sim::Time now, tcp::TcpPhase phase) {
  session_.note({now, "phase", sender_.variant_name(),
                 static_cast<std::uint64_t>(phase)});

  if (phase == tcp::TcpPhase::kRtoRecovery) {
    // End of the timeout action: cwnd must have collapsed to one segment
    // (and any recovery episode is abandoned without an exit assignment).
    if (sender_.cwnd_bytes() != sender_.config().mss) {
      session_.fail(InvariantId::kTimeoutCollapse, now,
                    "cwnd=%llu after RTO, expected 1 MSS",
                    static_cast<unsigned long long>(sender_.cwnd_bytes()));
    }
    timeout_pending_ = false;
    in_episode_ = false;
    was_in_probe_ = false;
    return;
  }

  if (rr_ == nullptr) return;

  if (phase == tcp::TcpPhase::kRetreat && !in_episode_) {
    // Recovery entrance (paper Fig. 2): by now ssthresh := win/2 must have
    // happened while cwnd stayed untouched, and recover := maxseq.
    in_episode_ = true;
    was_in_probe_ = false;
    seen_exit_cwnd_ = false;
    retreat_new_sends_ = 0;
    last_recover_ = rr_->recover_point();
    const std::uint64_t mss = sender_.config().mss;
    const std::uint64_t win = std::min(
        sender_.cwnd_bytes(), sender_.config().max_window_pkts * mss);
    const std::uint64_t expect = std::max<std::uint64_t>(2 * mss, win / 2);
    if (sender_.ssthresh_bytes() != expect) {
      session_.fail(InvariantId::kRrSsthreshHalve, now,
                    "entry ssthresh=%llu, expected max(2*MSS, win/2)=%llu",
                    static_cast<unsigned long long>(sender_.ssthresh_bytes()),
                    static_cast<unsigned long long>(expect));
    }
    entry_ssthresh_ = expect;
    if (rr_->recover_point() > sender_.max_sent()) {
      session_.fail(InvariantId::kRrRecoverMono, now,
                    "entry recover=%llu beyond maxseq=%llu",
                    static_cast<unsigned long long>(rr_->recover_point()),
                    static_cast<unsigned long long>(sender_.max_sent()));
    }
    return;
  }

  if (phase == tcp::TcpPhase::kProbe && in_episode_) {
    // Retreat -> probe boundary: actnum takes over from the retreat count.
    was_in_probe_ = true;
    last_probe_actnum_ = rr_->actnum();
    return;
  }

  if (in_episode_ && !in_recovery_phase(phase)) {
    // Recovery exit via an ACK past recover: the cwnd := actnum x MSS
    // assignment must have been observed on the way out.
    if (!seen_exit_cwnd_) {
      session_.fail(InvariantId::kRrExitCwnd, now,
                    "left recovery (phase=%s) without cwnd := actnum x MSS",
                    tcp::to_string(phase));
    }
    in_episode_ = false;
    was_in_probe_ = false;
  }
}

void InvariantAuditor::on_timeout(sim::Time now) {
  session_.note({now, "timeout", sender_.variant_name(), sender_.snd_una()});
  timeout_pending_ = true;
  pre_timeout_backoff_ = sender_.rto_estimator().backoff_count();
  backoff_check_pending_ = true;
}

void InvariantAuditor::on_cwnd(sim::Time now, double /*cwnd_packets*/) {
  const std::uint64_t cwnd = sender_.cwnd_bytes();
  const std::uint64_t mss = sender_.config().mss;
  session_.note({now, "cwnd", sender_.variant_name(), cwnd, last_cwnd_});
  const std::uint64_t prev = last_cwnd_;
  last_cwnd_ = cwnd;

  if (cwnd < mss) {
    session_.fail(InvariantId::kWndFloor, now, "cwnd=%llu < MSS",
                  static_cast<unsigned long long>(cwnd));
  }

  if (timeout_pending_) {
    // The first cwnd write after on_timeout is the collapse to one segment.
    // Resolve the pending timeout here, not at on_phase: a repeated RTO
    // while already in kRtoRecovery never produces a phase notification.
    if (cwnd != mss) {
      session_.fail(InvariantId::kTimeoutCollapse, now,
                    "RTO set cwnd=%llu, expected exactly 1 MSS",
                    static_cast<unsigned long long>(cwnd));
    }
    timeout_pending_ = false;
    in_episode_ = false;
    was_in_probe_ = false;
    return;
  }

  if (rr_ == nullptr) return;

  if (in_episode_ && rr_->in_recovery()) {
    // The only legitimate cwnd write inside an episode is the exit
    // assignment (exit_recovery sets cwnd while the RR state machine still
    // reads retreat/probe): exactly max(1, measured in-flight) x MSS.
    const long flight = std::max<long>(
        1, rr_->in_retreat() ? rr_->sent_in_retreat() : rr_->actnum());
    const std::uint64_t expect = static_cast<std::uint64_t>(flight) * mss;
    if (cwnd == expect) {
      seen_exit_cwnd_ = true;
      exit_event_ = true;
      exit_cwnd_pkts_ = flight;
    } else {
      session_.fail(InvariantId::kRrCwndFrozen, now,
                    "cwnd %llu -> %llu inside recovery (exit would be %llu)",
                    static_cast<unsigned long long>(prev),
                    static_cast<unsigned long long>(cwnd),
                    static_cast<unsigned long long>(expect));
    }
    return;
  }

  // Outside recovery RR grows like vanilla TCP: at most one MSS per event
  // (slow start +MSS, congestion avoidance less, ECN reduce never gains
  // more than the 2-MSS ssthresh floor allows). A jump bigger than that is
  // a window the algorithm never earned — e.g. restoring a stale pre-loss
  // cwnd after exit.
  if (cwnd > prev + mss) {
    session_.fail(InvariantId::kWndGrowth, now,
                  "cwnd %llu -> %llu (+%llu) in one event, limit +%llu",
                  static_cast<unsigned long long>(prev),
                  static_cast<unsigned long long>(cwnd),
                  static_cast<unsigned long long>(cwnd - prev),
                  static_cast<unsigned long long>(mss));
  }
}

void InvariantAuditor::on_ack_processed(sim::Time now, std::uint64_t ack,
                                        bool dup) {
  (void)ack;
  (void)dup;
  check_state(now);
  session_.pipe_check(now);

  // The exit ACK may release at most the measured in-flight count the exit
  // assignment put into cwnd (when that ACK also emptied the pipe), and
  // never the stale pre-loss window. maxburst is the floor so tiny actnum
  // exits are not over-constrained relative to the baselines' limit.
  if (rr_ != nullptr && exit_event_) {
    const long limit =
        std::max<long>(sender_.config().maxburst, exit_cwnd_pkts_);
    if (exit_sends_ > limit) {
      session_.fail(InvariantId::kRrExitBurst, now,
                    "exit ACK released %d new packets (limit %ld)",
                    exit_sends_, limit);
    }
  }
  exit_event_ = false;
}

void InvariantAuditor::check_state(sim::Time now) {
  const std::uint64_t una = sender_.snd_una();
  const std::uint64_t nxt = sender_.snd_nxt();
  const std::uint64_t maxs = sender_.max_sent();
  const std::uint64_t mss = sender_.config().mss;

  if (una < last_una_ || una > nxt || nxt > maxs) {
    session_.fail(InvariantId::kSeqOrder, now,
                  "una=%llu (prev %llu) nxt=%llu max_sent=%llu",
                  static_cast<unsigned long long>(una),
                  static_cast<unsigned long long>(last_una_),
                  static_cast<unsigned long long>(nxt),
                  static_cast<unsigned long long>(maxs));
  }
  last_una_ = una;

  // Liveness: with data outstanding the retransmission timer is the only
  // guaranteed way out of total ACK loss, so it must be pending after every
  // processed ACK. A sender that disarms it can die silently.
  if (una < maxs && !sender_.rto_pending()) {
    session_.fail(InvariantId::kRtoArmed, now,
                  "una=%llu < max_sent=%llu but no RTO timer pending",
                  static_cast<unsigned long long>(una),
                  static_cast<unsigned long long>(maxs));
  }

  if (sender_.stats().bytes_acked != una) {
    session_.fail(InvariantId::kAckedTotal, now,
                  "bytes_acked=%llu != snd_una=%llu",
                  static_cast<unsigned long long>(sender_.stats().bytes_acked),
                  static_cast<unsigned long long>(una));
  }

  if (sender_.cwnd_bytes() < mss || sender_.ssthresh_bytes() < 2 * mss) {
    session_.fail(InvariantId::kWndFloor, now, "cwnd=%llu ssthresh=%llu",
                  static_cast<unsigned long long>(sender_.cwnd_bytes()),
                  static_cast<unsigned long long>(sender_.ssthresh_bytes()));
  }

  if (receiver_ != nullptr) {
    // The receiver's cumulative point can only be AHEAD of what the sender
    // has learned (ACKs in flight), and dormant data is sent-but-undelivered
    // by definition.
    const std::uint64_t rcv = receiver_->rcv_nxt();
    if (una > rcv) {
      session_.fail(InvariantId::kPipeAccount, now,
                    "snd_una=%llu ahead of rcv_nxt=%llu",
                    static_cast<unsigned long long>(una),
                    static_cast<unsigned long long>(rcv));
    }
    const std::uint64_t dormant = receiver_->buffered_out_of_order();
    if (rcv > maxs || dormant > maxs - std::min(rcv, maxs)) {
      session_.fail(InvariantId::kPipeDormant, now,
                    "dormant=%llu rcv_nxt=%llu max_sent=%llu",
                    static_cast<unsigned long long>(dormant),
                    static_cast<unsigned long long>(rcv),
                    static_cast<unsigned long long>(maxs));
    }
  }

  if (rr_ == nullptr) return;

  if (!in_episode_ || !rr_->in_recovery()) return;

  const long actnum = rr_->actnum();
  const long ndup = rr_->ndup();
  const std::uint64_t recover = rr_->recover_point();

  if (recover < last_recover_ || recover > maxs) {
    session_.fail(InvariantId::kRrRecoverMono, now,
                  "recover=%llu (prev %llu, maxseq %llu)",
                  static_cast<unsigned long long>(recover),
                  static_cast<unsigned long long>(last_recover_),
                  static_cast<unsigned long long>(maxs));
  }
  last_recover_ = recover;

  if (sender_.ssthresh_bytes() != entry_ssthresh_) {
    session_.fail(InvariantId::kRrSsthreshHalve, now,
                  "ssthresh %llu != entry value %llu inside recovery",
                  static_cast<unsigned long long>(sender_.ssthresh_bytes()),
                  static_cast<unsigned long long>(entry_ssthresh_));
  }

  // actnum counts packets actually in flight: never negative, never more
  // than the (frozen) window it replaced allows.
  const long cwnd_pkts = static_cast<long>(sender_.cwnd_bytes() / mss);
  if (actnum < 0 || ndup < 0 || actnum > cwnd_pkts) {
    session_.fail(InvariantId::kRrActBound, now,
                  "actnum=%ld ndup=%ld cwnd=%ld pkts", actnum, ndup,
                  cwnd_pkts);
  }

  if (rr_->in_probe()) {
    if (was_in_probe_ && actnum > last_probe_actnum_ + 1) {
      session_.fail(InvariantId::kRrActLinear, now,
                    "actnum %ld -> %ld in one event (linear growth is +1)",
                    last_probe_actnum_, actnum);
    }
    was_in_probe_ = true;
    last_probe_actnum_ = actnum;
  }
}

// ---------------------------------------------------------------------------
// QueueAuditor (network side)

QueueAuditor::QueueAuditor(AuditSession& session, net::QueueDisc& queue,
                           const char* name)
    : session_{session},
      queue_{queue},
      name_{name},
      red_{dynamic_cast<const net::RedQueue*>(&queue)},
      base_enq_{queue.stats().enqueued},
      base_deq_{queue.stats().dequeued},
      base_drop_{queue.stats().dropped},
      base_len_{queue.len_packets()} {
  if (red_ != nullptr) {
    capacity_packets_ = red_->config().buffer_packets;
  } else if (const auto* dt =
                 dynamic_cast<const net::DropTailQueue*>(&queue)) {
    if (dt->mode() == net::DropTailQueue::Mode::kPackets)
      capacity_packets_ = dt->capacity();
    else
      capacity_bytes_ = dt->capacity();
  }
}

void QueueAuditor::detach() { queue_.set_observer(nullptr); }

void QueueAuditor::on_enqueue(const net::Packet& p, const net::QueueDisc& q) {
  const sim::Time now = session_.simulator().now();
  session_.note({now, "enq", name_, p.tcp.seq, q.len_packets(), p.uid});
  ++seen_enq_;
  check_accounting(q);
  check_red(now);
}

void QueueAuditor::on_dequeue(const net::Packet& p, const net::QueueDisc& q) {
  const sim::Time now = session_.simulator().now();
  session_.note({now, "deq", name_, p.tcp.seq, q.len_packets(), p.uid});
  ++seen_deq_;
  check_accounting(q);
}

void QueueAuditor::on_drop(const net::Packet& p, net::DropReason why,
                           const net::QueueDisc& q) {
  const sim::Time now = session_.simulator().now();
  session_.note({now, why == net::DropReason::kEarly ? "edrop" : "drop", name_,
                 p.tcp.seq, q.len_packets(), p.uid});
  ++seen_drop_;
  if (p.is_data()) ++data_drops_;
  check_accounting(q);
  check_red(now);
  if (red_ != nullptr && why == net::DropReason::kEarly &&
      red_->avg_queue() < red_->config().min_th) {
    session_.fail(InvariantId::kRedDropRegion, now,
                  "%s: early drop with avg=%.3f < min_th=%.3f", name_,
                  red_->avg_queue(), red_->config().min_th);
  }
  session_.pipe_check(now);
}

void QueueAuditor::check_accounting(const net::QueueDisc& q) {
  const sim::Time now = session_.simulator().now();
  const auto& s = q.stats();
  const bool counters_ok = s.enqueued - base_enq_ == seen_enq_ &&
                           s.dequeued - base_deq_ == seen_deq_ &&
                           s.dropped - base_drop_ == seen_drop_;
  const bool occupancy_ok =
      q.len_packets() == base_len_ + seen_enq_ - seen_deq_;
  if (!counters_ok || !occupancy_ok) {
    session_.fail(
        InvariantId::kQueueConserve, now,
        "%s: stats enq=%llu deq=%llu drop=%llu len=%zu vs observed "
        "enq=%llu deq=%llu drop=%llu len0=%zu",
        name_, static_cast<unsigned long long>(s.enqueued - base_enq_),
        static_cast<unsigned long long>(s.dequeued - base_deq_),
        static_cast<unsigned long long>(s.dropped - base_drop_),
        q.len_packets(), static_cast<unsigned long long>(seen_enq_),
        static_cast<unsigned long long>(seen_deq_),
        static_cast<unsigned long long>(seen_drop_), base_len_);
  }
  if ((capacity_packets_ > 0 && q.len_packets() > capacity_packets_) ||
      (capacity_bytes_ > 0 && q.len_bytes() > capacity_bytes_)) {
    session_.fail(InvariantId::kQueueCapacity, now,
                  "%s: occupancy %zu pkts / %llu B over capacity %llu/%llu",
                  name_, q.len_packets(),
                  static_cast<unsigned long long>(q.len_bytes()),
                  static_cast<unsigned long long>(capacity_packets_),
                  static_cast<unsigned long long>(capacity_bytes_));
  }
}

void QueueAuditor::check_red(sim::Time now) {
  if (red_ == nullptr) return;
  const double avg = red_->avg_queue();
  if (avg < 0.0 ||
      avg > static_cast<double>(red_->config().buffer_packets)) {
    session_.fail(InvariantId::kRedAvgRange, now,
                  "%s: avg=%.3f outside [0, %llu]", name_, avg,
                  static_cast<unsigned long long>(
                      red_->config().buffer_packets));
  }
}

}  // namespace rrtcp::audit
