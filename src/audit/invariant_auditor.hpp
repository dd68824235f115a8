// Protocol-invariant audit layer.
//
// The paper's central claims are conservation arguments: `actnum` tracks the
// data actually in flight while `cwnd` over-counts dormant and dropped
// packets; `ndup` vs `actnum` detects further loss without a timeout; and
// `cwnd := actnum × MSS` at exit prevents the big-ACK burst. Nothing in a
// simulation *output* reveals a silent accounting bug in any of these — so
// this layer checks them while the simulation runs.
//
// An AuditSession attaches lightweight observers to senders
// (tcp::SenderObserver) and queue disciplines (net::QueueObserver). Every
// send/ACK/drop/timer event is recorded in a ring buffer and followed by
// machine-checkable invariants, each with a stable ID and a paper citation
// (see DESIGN.md §9 for the full table). A violation either aborts loudly —
// printing the sim-time and the recent-event ring via the context hook in
// sim/assert.hpp — or is recorded for tests to inspect (FailMode::kRecord,
// which the mutation self-checks in tests/audit use).
//
// The observers are attach-only: no core protocol code depends on this
// library, and an unattached sender/queue pays one branch-on-null per event.
// Benches and the integration scenario runner attach sessions through
// audit::ScopedAudit (audit/audit.hpp), which compiles to a no-op unless the
// build sets RRTCP_AUDIT=ON.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/assert.hpp"

#include "core/rr_sender.hpp"
#include "net/link.hpp"
#include "net/queue_disc.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "tcp/receiver.hpp"
#include "tcp/sender_base.hpp"
#include "tcp/types.hpp"

namespace rrtcp::net {
class RedQueue;  // net/red.hpp — only referenced, included by the .cpp
}

namespace rrtcp::audit {

// Stable identifiers for every checked invariant. to_string() gives the ID
// used in failure output; citation() names the paper section (Wang & Shin,
// ICDCS 2001 unless stated otherwise) the invariant encodes.
enum class InvariantId : std::uint8_t {
  // Generic sender invariants (all variants).
  kSeqOrder,         // snd_una <= snd_nxt <= max_sent, snd_una monotone
  kAckedTotal,       // stats.bytes_acked == snd_una
  kWndFloor,         // cwnd >= MSS, ssthresh >= 2*MSS
  kWndGrowth,        // per-event cwnd increase bounded (MSS for RR)
  kTimeoutCollapse,  // RTO collapses cwnd to exactly 1 MSS
  // Robust-Recovery invariants (RrSender only).
  kRrRecoverMono,    // recover non-decreasing within an episode, <= maxseq
  kRrActBound,       // 0 <= actnum <= cwnd/MSS and ndup >= 0
  kRrActLinear,      // actnum grows by at most +1 across probe boundaries
  kRrRetreatHalf,    // retreat sends <= ndup/2 new packets (half rate)
  kRrProbeClock,     // at most one new packet per ACK event in recovery
  kRrCwndFrozen,     // cwnd untouched between entry and exit
  kRrExitCwnd,       // exit hands cwnd exactly actnum * MSS
  kRrExitBurst,      // the exit ACK releases at most maxburst new packets
  kRrSsthreshHalve,  // entry sets ssthresh = max(2*MSS, win/2), then frozen
  // Cross-layer pipe accounting (needs the receiver / links attached).
  kPipeAccount,      // snd_una <= rcv_nxt (sender never outruns delivery)
  kPipeDormant,      // dormant bytes <= max_sent - rcv_nxt
  kPipeConserve,     // data copies in flight = sent - delivered - dropped >= 0
  // Queue-discipline invariants.
  kQueueConserve,    // stats match observed events; len = enq - deq
  kQueueCapacity,    // occupancy never exceeds the configured buffer
  kRedAvgRange,      // RED avg in [0, buffer_packets]
  kRedDropRegion,    // RED early drops/marks only when avg >= min_th
  // Liveness invariants (chaos engine): the coarse timeout is the paper's
  // last-resort recovery, so the escape hatch must stay armed and back off.
  kRtoArmed,         // data outstanding => retransmission timer pending
  kRtoBackoff,       // RTO grows across a timeout (unless pinned at max_rto)
  kCount,
};

const char* to_string(InvariantId id);
const char* citation(InvariantId id);

// One entry of the recent-event ring: what happened, where, and up to three
// event-specific values (documented per kind in the .cpp dump routine).
struct AuditEvent {
  sim::Time t;
  const char* kind = "";  // "send" "rtx" "ack" "dup" "done" "phase" ...
  const char* who = "";   // sender variant name or queue label
  std::uint64_t a = 0, b = 0, c = 0;
};

// Fixed-size ring of recent events; dump() prints oldest-first.
class EventRing {
 public:
  static constexpr std::size_t kCapacity = 64;

  void push(const AuditEvent& e) {
    ring_[head_ % kCapacity] = e;
    ++head_;
  }
  std::size_t size() const { return head_ < kCapacity ? head_ : kCapacity; }
  void dump(std::FILE* out) const;

 private:
  std::array<AuditEvent, kCapacity> ring_{};
  std::size_t head_ = 0;
};

struct Violation {
  InvariantId id;
  sim::Time t;
  std::string detail;
};

class AuditSession;

// Sender-side invariant checks; one per attached sender. Pure observer —
// reads only the sender's public introspection surface.
class InvariantAuditor final : public tcp::SenderObserver {
 public:
  InvariantAuditor(AuditSession& session, tcp::TcpSenderBase& sender,
                   tcp::TcpReceiver* receiver);

  void on_send(sim::Time now, std::uint64_t seq, std::uint32_t len,
               bool rtx) override;
  void on_ack(sim::Time now, std::uint64_t ack, bool dup) override;
  void on_ack_processed(sim::Time now, std::uint64_t ack, bool dup) override;
  void on_phase(sim::Time now, tcp::TcpPhase phase) override;
  void on_timeout(sim::Time now) override;
  void on_cwnd(sim::Time now, double cwnd_packets) override;

  std::uint64_t data_sends() const { return data_sends_; }
  // Unregisters this observer from the sender (session teardown).
  void detach();

 private:
  bool in_recovery_phase(tcp::TcpPhase p) const;
  void check_state(sim::Time now);

  AuditSession& session_;
  tcp::TcpSenderBase& sender_;
  core::RrSender* rr_;  // non-null when the sender is the paper's RR
  tcp::TcpReceiver* receiver_;

  // Baselines / previous-event state.
  std::uint64_t last_una_;
  std::uint64_t last_cwnd_;
  long last_probe_actnum_ = 0;
  bool was_in_probe_ = false;
  std::uint64_t last_recover_ = 0;
  std::uint64_t entry_ssthresh_ = 0;  // expected (and frozen) episode value
  bool in_episode_ = false;
  bool seen_exit_cwnd_ = false;   // exit assignment observed this episode
  bool timeout_pending_ = false;  // between on_timeout and kRtoRecovery
  bool backoff_check_pending_ = false;  // between on_timeout and next send
  int pre_timeout_backoff_ = 0;
  bool exit_event_ = false;       // current ACK event exited recovery
  long exit_cwnd_pkts_ = 0;       // packets handed to cwnd at exit
  int new_sends_this_event_ = 0;
  int exit_sends_ = 0;
  long retreat_new_sends_ = 0;
  std::uint64_t data_sends_ = 0;  // all data transmissions (pipe accounting)
};

// Queue-side invariant checks; one per attached queue. Cross-checks the
// queue's own stats against the observed event stream and pins the RED
// average-queue range.
class QueueAuditor final : public net::QueueObserver {
 public:
  QueueAuditor(AuditSession& session, net::QueueDisc& queue, const char* name);

  void on_enqueue(const net::Packet& p, const net::QueueDisc& q) override;
  void on_dequeue(const net::Packet& p, const net::QueueDisc& q) override;
  void on_drop(const net::Packet& p, net::DropReason why,
               const net::QueueDisc& q) override;

  std::uint64_t data_drops() const { return data_drops_; }
  // Clears the queue's observer slot (session teardown).
  void detach();

 private:
  void check_accounting(const net::QueueDisc& q);
  void check_red(sim::Time now);

  AuditSession& session_;
  net::QueueDisc& queue_;
  const char* name_;
  const net::RedQueue* red_;             // non-null for RED queues
  std::uint64_t capacity_packets_ = 0;   // 0 = not packet-limited
  std::uint64_t capacity_bytes_ = 0;     // 0 = not byte-limited
  // Baselines at attach time, so late attachment stays exact.
  std::uint64_t base_enq_, base_deq_, base_drop_;
  std::size_t base_len_;
  std::uint64_t seen_enq_ = 0, seen_deq_ = 0, seen_drop_ = 0;
  std::uint64_t data_drops_ = 0;
};

// A session groups the auditors of one simulation: shared event ring,
// violation sink, fail mode, and the cross-flow pipe-conservation counters.
// While alive it registers itself as the thread's assert-context provider,
// so ANY failing RRTCP_ASSERT in an audited run also dumps the ring.
class AuditSession {
 public:
  enum class FailMode {
    kAbort,   // print sim-time + ring buffer, then abort (benches, CI)
    kRecord,  // collect violations for inspection (mutation self-checks)
  };

  explicit AuditSession(sim::Simulator& sim, FailMode mode = FailMode::kAbort);
  ~AuditSession();
  AuditSession(const AuditSession&) = delete;
  AuditSession& operator=(const AuditSession&) = delete;

  // Attach invariant checking to a sender (and, when available, the peer
  // receiver — enabling the cross-layer pipe checks for that flow).
  void attach(tcp::TcpSenderBase& sender, tcp::TcpReceiver* receiver = nullptr);
  // Attach accounting checks to a queue. `name` labels ring entries and must
  // outlive the session (string literals).
  void attach_queue(net::QueueDisc& queue, const char* name);
  // Audit a link: its queue (as attach_queue) plus the data packets its
  // loss model drops, which leave the pipe as surely as queue drops do.
  void attach_link(net::Link& link, const char* name);

  // Results.
  bool clean() const { return violations_.empty(); }
  const std::vector<Violation>& violations() const { return violations_; }
  std::size_t count(InvariantId id) const;
  // Total violations (recorded entries are capped; this never saturates).
  std::uint64_t total_violations() const { return total_violations_; }
  void dump(std::FILE* out) const;

  sim::Simulator& simulator() { return sim_; }

 private:
  friend class InvariantAuditor;
  friend class QueueAuditor;

  void note(const AuditEvent& e) { ring_.push(e); }
  [[gnu::format(printf, 4, 5)]] void fail(InvariantId id, sim::Time t,
                                          const char* fmt, ...);
  // Cross-flow conservation: data copies in the network can never go
  // negative. Called from per-flow and per-queue event handlers.
  void pipe_check(sim::Time t);

  static void dump_thunk(void* self, std::FILE* out);

  // Per-receiver / per-link baselines so counts start at the attach point.
  struct ReceiverRef {
    const tcp::TcpReceiver* receiver;
    std::uint64_t base_data_packets;
  };
  struct LossLinkRef {
    const net::Link* link;
    std::uint64_t base_drops;
  };

  sim::Simulator& sim_;
  FailMode mode_;
  EventRing ring_;
  std::vector<Violation> violations_;
  std::uint64_t total_violations_ = 0;
  AssertContextFn prev_context_;
  void* prev_context_arg_ = nullptr;

  std::vector<std::unique_ptr<InvariantAuditor>> sender_auditors_;
  std::vector<std::unique_ptr<QueueAuditor>> queue_auditors_;
  std::vector<ReceiverRef> receivers_;
  std::vector<LossLinkRef> loss_links_;  // audited links' loss-model drops
  bool pipe_enabled_ = true;  // false once a sender attaches w/o receiver
};

}  // namespace rrtcp::audit
