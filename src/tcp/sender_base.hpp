// TCP sender framework.
//
// TcpSenderBase implements everything the congestion-control variants have
// in common: the sequence space, segmentation of application data, the
// retransmission timer (coarse-grained, Karn-compliant BSD-style single-
// segment RTT timing), cumulative-ACK bookkeeping, duplicate-ACK
// classification, and observer/tracing plumbing. Variants (Tahoe, Reno,
// New-Reno, SACK, and the paper's Robust Recovery in src/core) override
// two hooks — handle_new_ack() and handle_dup_ack() — plus a timeout
// cleanup hook, and drive transmission through the protected helpers.
//
// The sender talks to the world only through env::Environment — clock,
// timers, packet I/O, trace sink — so the same variant object runs inside
// the simulator (env::SimEnvironment) and over real sockets
// (live::LiveEnvironment) without modification. The (Simulator&, Node&)
// constructor is a convenience that owns a SimEnvironment internally;
// simulation drivers that need the environment explicitly build one and
// use the primary constructor.
//
// Sequence numbers are 64-bit byte offsets starting at 0; a segment is
// `mss` bytes except possibly the final one of a finite transfer.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "env/environment.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/small_fn.hpp"
#include "tcp/rto.hpp"
#include "tcp/types.hpp"

namespace rrtcp::sim {
class Simulator;
}

namespace rrtcp::tcp {

class TcpSenderBase : public net::Agent {
 public:
  // Primary: the sender lives wherever `env` says. `env` must outlive the
  // sender.
  TcpSenderBase(env::Environment& env, net::FlowId flow, TcpConfig cfg = {});
  // Simulator convenience: owns an env::SimEnvironment over (sim, node)
  // addressed to `dst`. Equivalent to building that environment yourself.
  TcpSenderBase(sim::Simulator& sim, net::Node& node, net::FlowId flow,
                net::NodeId dst, TcpConfig cfg = {});
  ~TcpSenderBase() override;

  // ---- Application interface -----------------------------------------
  // Total bytes this connection will carry; nullopt = unbounded (FTP with
  // an infinite backlog). Must be set before start() for finite transfers.
  void set_app_bytes(std::optional<std::uint64_t> total) { app_total_ = total; }
  std::optional<std::uint64_t> app_bytes() const { return app_total_; }

  // Append `bytes` to a finite transfer's application backlog and, if the
  // sender is running, transmit whatever the window allows. This is how
  // incremental sources (the ON/OFF web-like model in src/traffic/) feed a
  // connection: arm an empty backlog with set_app_bytes(0), then enqueue
  // bursts as they arrive. Requires a finite backlog — an unbounded sender
  // already has infinite data. completion_time() records the FIRST time the
  // backlog drained; after further enqueues complete() goes false again.
  void app_enqueue(std::uint64_t bytes);

  // Begin transmitting at the current environment time.
  void start();
  bool started() const { return started_; }

  // All application bytes ACKed (finite transfers only).
  bool complete() const {
    return app_total_.has_value() && snd_una_ >= *app_total_;
  }
  sim::Time start_time() const { return start_time_; }
  sim::Time completion_time() const { return completed_at_; }
  // Invoked once, at the first instant the transfer completes. The capture
  // must fit CompleteFn's inline buffer (a few pointers) — completion is
  // observed on the ACK hot path and must stay allocation-free.
  template <typename F>
  void set_complete_callback(F&& fn) {
    complete_fn_.emplace(std::forward<F>(fn));
  }

  // ---- net::Agent ------------------------------------------------------
  void receive(net::Packet p) final;

  // ---- Introspection ---------------------------------------------------
  std::uint64_t snd_una() const { return snd_una_; }   // lowest unACKed byte
  std::uint64_t snd_nxt() const { return snd_nxt_; }   // next byte to send
  std::uint64_t max_sent() const { return max_sent_; } // "maxseq": bytes ever sent
  std::uint64_t cwnd_bytes() const { return cwnd_; }
  double cwnd_packets() const {
    return static_cast<double>(cwnd_) / cfg_.mss;
  }
  std::uint64_t ssthresh_bytes() const { return ssthresh_; }
  int dupacks() const { return dupacks_; }
  TcpPhase phase() const { return phase_; }
  const SenderStats& stats() const { return stats_; }
  const TcpConfig& config() const { return cfg_; }
  env::Environment& environment() { return env_; }

  // Classic TCP's view of outstanding data (the quantity the paper argues
  // over-estimates the pipe during recovery).
  std::uint64_t flight_bytes() const { return snd_nxt_ - snd_una_; }

  // ---- Liveness introspection ------------------------------------------
  // The retransmission timer is the sender's last-resort escape hatch: a
  // correct sender keeps it armed whenever data is outstanding. The chaos
  // watchdog (src/chaos/watchdog.hpp) and the liveness audit invariants
  // read this surface; nothing here grants control over the timer.
  const RtoEstimator& rto_estimator() const { return rto_; }
  bool rto_pending() const { return rto_timer_.pending(); }
  // Absolute expiry of the armed timer; meaningful only while pending().
  sim::Time rto_expiry() const { return rto_timer_.expiry(); }

  void add_observer(SenderObserver* obs) { observers_.push_back(obs); }
  void remove_observer(SenderObserver* obs) {
    std::erase(observers_, obs);
  }

  virtual const char* variant_name() const = 0;

 protected:
  // ---- Variant hooks ---------------------------------------------------
  // Called after the base has advanced snd_una_ to h.ack, reset dupacks_,
  // and managed the RTO timer. `newly_acked` is the number of bytes this
  // ACK newly covered.
  virtual void handle_new_ack(const net::TcpHeader& h,
                              std::uint64_t newly_acked) = 0;
  // Called for each duplicate ACK (h.ack == snd_una_, data outstanding);
  // dupacks_ has already been incremented.
  virtual void handle_dup_ack(const net::TcpHeader& h) = 0;
  // Called when the retransmission timer fires, after the base has reset
  // cwnd/ssthresh and before the segment at snd_una_ is retransmitted.
  // Variants clear any recovery-specific state here.
  virtual void handle_timeout_cleanup() {}

  // ---- Helpers for variants -------------------------------------------
  std::uint64_t effective_window() const;
  std::uint64_t max_window_bytes() const {
    return cfg_.max_window_pkts * cfg_.mss;
  }
  // Length of the segment starting at `seq` (mss, or the finite tail).
  std::uint32_t segment_len_at(std::uint64_t seq) const;
  // Unsent application data exists at snd_nxt_.
  bool app_data_available() const;

  // Send the next new segment at snd_nxt_ regardless of cwnd (used by the
  // self-clocked recovery paths); bounded by data availability and — unless
  // `ignore_rwnd` — by the receiver window. RR's recovery passes
  // ignore_rwnd=true: the flight-based receiver-window check counts
  // dormant packets already buffered at the receiver (exactly the
  // over-estimation the paper's Section 2.1 criticizes), and the receiver
  // model, like an ns-2 sink, reassembles out-of-order data without
  // bound. Returns true if a segment left.
  bool send_one_new_segment(bool ignore_rwnd = false);
  // Send new segments while flight < effective_window(), up to max_packets.
  // Returns how many were sent.
  int send_new_data(int max_packets = 1 << 30);
  // Retransmit the segment starting at `seq`.
  void retransmit(std::uint64_t seq);

  // Slow-start / congestion-avoidance window growth for one ACK, plus the
  // matching phase update. Not used inside recovery.
  void open_cwnd();
  // ssthresh := max(2*MSS, window/2) — the standard multiplicative back-off
  // (ns-2's CLOSE_SSTHRESH_HALF, using window = min(cwnd, rwnd)).
  void halve_ssthresh();

  void set_cwnd(std::uint64_t bytes);
  void set_ssthresh(std::uint64_t bytes) { ssthresh_ = bytes; }
  void set_phase(TcpPhase p);
  // Phase := slow-start or congestion-avoidance from cwnd vs ssthresh.
  void update_open_phase();

  // Roll transmission back to snd_una_ (go-back-N restart; Tahoe and the
  // timeout path use this).
  void rollback_snd_nxt() { snd_nxt_ = snd_una_; }
  void count_fast_retransmit() { ++stats_.fast_retransmits; }

  void restart_rto_timer();
  void stop_rto_timer();

  // The base timeout action: back off the RTO, collapse to one segment,
  // roll snd_nxt_ back to snd_una_ (go-back-N) and retransmit.
  virtual void on_retransmission_timeout();

  // Declared before env_ so that, in reverse destruction order, the owned
  // environment (when the simulator-convenience constructor built one)
  // outlives the env::Timer member below, whose destructor calls back into
  // it.
  std::unique_ptr<env::Environment> owned_env_;
  env::Environment& env_;
  TcpConfig cfg_;

 private:
  // Delegation target of the simulator-convenience constructor: runs the
  // primary constructor against *owned, then takes ownership.
  TcpSenderBase(std::unique_ptr<env::Environment> owned, net::FlowId flow,
                TcpConfig cfg);

  void transmit(std::uint64_t seq, std::uint32_t len, bool is_rtx);
  void handle_ecn_echo();
  void maybe_sample_rtt(std::uint64_t ack);
  void check_complete();
  void notify_send(std::uint64_t seq, std::uint32_t len, bool rtx);
  void notify_ack(std::uint64_t ack, bool dup);
  void notify_ack_processed(std::uint64_t ack, bool dup);

  net::FlowId flow_;
  net::NodeId dst_;

  bool started_ = false;
  sim::Time start_time_ = sim::Time::zero();
  sim::Time completed_at_ = sim::Time::zero();
  using CompleteFn = sim::SmallCallable<void(sim::Time), 48>;
  CompleteFn complete_fn_;

  std::optional<std::uint64_t> app_total_;

  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::uint64_t max_sent_ = 0;

  std::uint64_t cwnd_ = 0;
  std::uint64_t ssthresh_ = 0;
  int dupacks_ = 0;
  TcpPhase phase_ = TcpPhase::kSlowStart;

  RtoEstimator rto_;
  env::Timer rto_timer_;

  // Smooth-Start: toggles on each ACK inside the smoothing region so the
  // window grows every second ACK.
  bool smooth_pending_ = false;

  // ECN state: reduce once per window (snd_una must pass the reduction
  // point before another ECE acts); CWR is carried on the next data
  // segment after a reduction.
  std::uint64_t ecn_cwr_point_ = 0;
  bool cwr_pending_ = false;

  // BSD-style single-segment RTT timing (Karn-safe): we time one first
  // transmission at a time and invalidate it if that range is ever resent.
  bool timing_ = false;
  std::uint64_t timed_seq_ = 0;  // sample completes when snd_una_ > this
  sim::Time timed_at_ = sim::Time::zero();

  SenderStats stats_;
  std::vector<SenderObserver*> observers_;
};

}  // namespace rrtcp::tcp
