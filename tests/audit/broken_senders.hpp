// Test-only mutants of RrSender that re-introduce the classic accounting
// bugs the paper's design rules out. Each subclass breaks exactly one rule;
// tests/audit/test_mutation_checks.cpp asserts that the InvariantAuditor
// catches every one by its specific invariant ID — the proof that the audit
// layer has teeth and is not a tautology over the implementation.
#pragma once

#include "core/rr_sender.hpp"

namespace rrtcp::test {

// Bug: treats cwnd as the transmission controller during the probe
// sub-phase — the very over-count (dormant + dropped packets included) the
// paper's actnum replaces. Each dup ACK bursts new data up to cwnd instead
// of releasing exactly one self-clocked packet.
// Expected catch: RR_PROBE_CLOCK.
class BrokenDormantCountingSender : public core::RrSender {
 public:
  using core::RrSender::RrSender;

 protected:
  void handle_dup_ack(const net::TcpHeader& h) override {
    core::RrSender::handle_dup_ack(h);
    if (in_probe()) {
      // "cwnd says there is room" — but cwnd counts dormant packets, so
      // each dup ACK bursts instead of releasing one self-clocked packet.
      send_one_new_segment(true);
      send_one_new_segment(true);
    }
  }
};

// Bug: skips the retreat back-off — sends one new packet per dup ACK in
// the first RTT instead of one per two, treating the loss burst as many
// congestion signals' worth of self-clocking instead of one.
// Expected catch: RR_RETREAT_HALF.
class BrokenRetreatSender : public core::RrSender {
 public:
  using core::RrSender::RrSender;

 protected:
  void handle_dup_ack(const net::TcpHeader& h) override {
    const long before = sent_in_retreat();
    core::RrSender::handle_dup_ack(h);
    if (in_retreat() && sent_in_retreat() == before) {
      send_one_new_segment(true);  // full rate: no halving
    }
  }
};

// Bug: exits recovery on the stale pre-loss cwnd instead of actnum x MSS —
// New-Reno's deflate-to-ssthresh mistake in its worst form. The restored
// window counts packets that are dormant at the receiver or dropped, so the
// exit ACK releases a line-rate burst.
// Expected catch: WND_GROWTH (the restore is window the sender never
// earned), with the burst itself visible to RR_EXIT_BURST.
class BrokenExitSender : public core::RrSender {
 public:
  using core::RrSender::RrSender;

 protected:
  void handle_dup_ack(const net::TcpHeader& h) override {
    const bool was = in_recovery();
    core::RrSender::handle_dup_ack(h);
    if (!was && in_recovery()) stale_cwnd_ = cwnd_bytes();
  }

  void handle_new_ack(const net::TcpHeader& h,
                      std::uint64_t newly_acked) override {
    const bool was = in_recovery();
    core::RrSender::handle_new_ack(h, newly_acked);
    if (was && !in_recovery() && stale_cwnd_ > 0) {
      set_cwnd(stale_cwnd_);  // "restore" the pre-loss window
      send_new_data();
    }
  }

 private:
  std::uint64_t stale_cwnd_ = 0;
};

// Bug: undoes the entrance ssthresh halving — the sender keeps its old
// slow-start threshold through recovery, so after exit it climbs straight
// back into the regime that just caused the loss.
// Expected catch: RR_SSTHRESH_HALVE.
class BrokenSsthreshSender : public core::RrSender {
 public:
  using core::RrSender::RrSender;

 protected:
  void handle_dup_ack(const net::TcpHeader& h) override {
    const bool was = in_recovery();
    const std::uint64_t pre = ssthresh_bytes();
    core::RrSender::handle_dup_ack(h);
    if (!was && in_recovery()) set_ssthresh(pre);  // un-halve
  }
};

// Bug: hides a transmission from its observers — on entering recovery it
// sends the fast retransmission twice, and the second copy goes straight
// to the environment instead of through the observed send path. Every
// copy is still delivered or dropped in the network, so the data leaving
// the pipe outgrows the data the audit saw enter it.
// Expected catch: PIPE_CONSERVE — once the copies a loss model dropped on
// an audited link are counted as having left the pipe.
class BrokenHiddenRetransmitSender : public core::RrSender {
 public:
  BrokenHiddenRetransmitSender(sim::Simulator& sim, net::Node& node,
                               net::FlowId flow, net::NodeId dst,
                               tcp::TcpConfig cfg = {})
      : core::RrSender{sim, node, flow, dst, cfg}, flow_{flow} {}

 protected:
  void handle_dup_ack(const net::TcpHeader& h) override {
    const bool was = in_recovery();
    core::RrSender::handle_dup_ack(h);
    if (was || !in_recovery()) return;
    net::Packet p;
    // A copy of the fast retransmission, the sender's last transmission:
    // it carries that packet's uid.
    p.uid = net::packet_uid(
        flow_, net::PacketType::kData,
        stats().data_packets_sent + stats().retransmissions - 1);
    p.flow = flow_;
    p.dst = env_.peer_id();
    p.type = net::PacketType::kData;
    p.size_bytes = config().mss;
    p.tcp.seq = snd_una();
    p.tcp.payload = static_cast<std::uint16_t>(segment_len_at(snd_una()));
    env_.send(std::move(p));
  }

 private:
  net::FlowId flow_;
};

}  // namespace rrtcp::test
