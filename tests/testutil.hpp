// Shared test utilities: packet factories, capturing fakes, and a sender
// harness that drives any TcpSenderBase variant with hand-crafted ACK
// streams so state-machine transitions can be asserted precisely.
#pragma once

#include <cstdint>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/queue_disc.hpp"
#include "sim/simulator.hpp"
#include "tcp/types.hpp"

namespace rrtcp::test {

// Records every packet offered to it (a stand-in for a Link).
class CaptureHandler final : public net::PacketHandler {
 public:
  void send(net::Packet p) override { packets.push_back(std::move(p)); }

  std::vector<net::Packet> packets;

  std::size_t count() const { return packets.size(); }
  const net::Packet& last() const { return packets.back(); }
  void clear() { packets.clear(); }

  // Data segments only, in send order.
  std::vector<net::Packet> data() const {
    std::vector<net::Packet> out;
    for (const auto& p : packets)
      if (p.is_data()) out.push_back(p);
    return out;
  }
};

// Records every packet delivered to it (a stand-in for an Agent).
class CaptureAgent final : public net::Agent {
 public:
  void receive(net::Packet p) override { packets.push_back(std::move(p)); }
  std::vector<net::Packet> packets;
};

// Records the uid of every packet offered to a queue, admitted or dropped,
// in arrival order.
class UidRecorder final : public net::QueueObserver {
 public:
  void on_enqueue(const net::Packet& p, const net::QueueDisc&) override {
    uids.push_back(p.uid);
  }
  void on_drop(const net::Packet& p, net::DropReason,
               const net::QueueDisc&) override {
    uids.push_back(p.uid);
  }
  std::vector<std::uint64_t> uids;
};

inline net::Packet make_data(net::FlowId flow, std::uint64_t seq,
                             std::uint32_t len, net::NodeId dst = 2) {
  net::Packet p;
  p.uid = net::packet_uid(flow, net::PacketType::kData, seq);
  p.flow = flow;
  p.dst = dst;
  p.type = net::PacketType::kData;
  p.size_bytes = 1000;
  p.tcp.seq = seq;
  p.tcp.payload = static_cast<std::uint16_t>(len);
  return p;
}

inline net::Packet make_ack(net::FlowId flow, std::uint64_t ack,
                            std::vector<net::SackBlock> sacks = {},
                            net::NodeId dst = 1) {
  net::Packet p;
  p.uid = net::packet_uid(flow, net::PacketType::kAck, ack);
  p.flow = flow;
  p.dst = dst;
  p.type = net::PacketType::kAck;
  p.size_bytes = 40;
  p.tcp.ack = ack;
  p.tcp.n_sack = static_cast<std::uint8_t>(sacks.size());
  for (std::size_t i = 0; i < sacks.size() && i < net::kMaxSackBlocks; ++i)
    p.tcp.set_sack_block(static_cast<int>(i), sacks[i]);
  return p;
}

// Drives one sender variant directly: outgoing segments land in `wire`,
// ACKs are injected by the test. The harness node never forwards anything
// anywhere else, so every transition is observable and synchronous.
template <typename SenderT>
class SenderHarness {
 public:
  explicit SenderHarness(tcp::TcpConfig cfg = {})
      : node_{1}, sender_{sim, node_, kFlow, /*dst=*/2, cfg} {
    node_.set_default_route(&wire);
  }

  static constexpr net::FlowId kFlow = 7;

  SenderT& sender() { return sender_; }

  // Deliver a (possibly SACK-tagged) pure ACK to the sender.
  void ack(std::uint64_t ackno, std::vector<net::SackBlock> sacks = {}) {
    sender_.receive(make_ack(kFlow, ackno, std::move(sacks)));
  }
  // n duplicate ACKs at the current snd_una.
  void dupacks(int n, std::vector<net::SackBlock> sacks = {}) {
    for (int i = 0; i < n; ++i) ack(sender_.snd_una(), sacks);
  }

  // Sequence numbers (bytes) of data segments captured since last clear().
  std::vector<std::uint64_t> sent_seqs() const {
    std::vector<std::uint64_t> out;
    for (const auto& p : wire.packets)
      if (p.is_data()) out.push_back(p.tcp.seq);
    return out;
  }

  sim::Simulator sim;
  CaptureHandler wire;

 private:
  net::Node node_;
  SenderT sender_;
};

}  // namespace rrtcp::test
