#include "traffic/cbr.hpp"

#include "sim/assert.hpp"

namespace rrtcp::traffic {

CbrSource::CbrSource(sim::Simulator& sim, net::Node& node, net::FlowId flow,
                     net::NodeId dst, CbrConfig cfg)
    : sim_{sim},
      node_{node},
      flow_{flow},
      dst_{dst},
      cfg_{cfg},
      interval_{sim::Time::transmission(cfg.packet_bytes, cfg.rate_bps)},
      timer_{sim, [this] { tick(); }} {
  RRTCP_ASSERT(cfg_.rate_bps > 0);
  RRTCP_ASSERT(cfg_.packet_bytes > 0);
  const sim::Time delay = cfg_.start > sim_.now() ? cfg_.start - sim_.now()
                                                  : sim::Time::zero();
  timer_.schedule(delay);
}

void CbrSource::tick() {
  if (cfg_.stop && sim_.now() >= *cfg_.stop) return;  // disarm
  net::Packet p;
  p.uid = net::packet_uid(flow_, net::PacketType::kCbr, packets_sent_);
  p.flow = flow_;
  p.dst = dst_;
  p.type = net::PacketType::kCbr;
  p.size_bytes = cfg_.packet_bytes;
  ++packets_sent_;
  node_.inject(std::move(p));
  timer_.schedule(interval_);
}

void CbrSink::receive(net::Packet p) {
  ++packets_;
  bytes_ += p.size_bytes;
}

}  // namespace rrtcp::traffic
