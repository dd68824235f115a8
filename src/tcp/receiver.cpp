#include "tcp/receiver.hpp"

#include <algorithm>

#include "env/sim_env.hpp"
#include "sim/assert.hpp"
#include "sim/log.hpp"

namespace rrtcp::tcp {

TcpReceiver::TcpReceiver(env::Environment& env, net::FlowId flow,
                         ReceiverConfig cfg)
    : env_{env},
      flow_{flow},
      peer_{env.peer_id()},
      cfg_{cfg},
      delack_timer_{env, [this] {
                      if (ack_pending_) send_ack(false);
                    }} {
  // Pre-size the reassembly state so steady-state loss handling never
  // touches the allocator: the hole count is window-bounded and the SACK
  // recency list is hard-capped at 8 (9 = cap + 1 transient slot).
  ooo_.reserve(64);
  recent_blocks_.reserve(9);
  env_.attach(flow_, this);
}

TcpReceiver::TcpReceiver(std::unique_ptr<env::Environment> owned,
                         net::FlowId flow, ReceiverConfig cfg)
    : TcpReceiver(*owned, flow, cfg) {
  owned_env_ = std::move(owned);
}

TcpReceiver::TcpReceiver(sim::Simulator& sim, net::Node& node,
                         net::FlowId flow, net::NodeId peer,
                         ReceiverConfig cfg)
    : TcpReceiver(std::make_unique<env::SimEnvironment>(sim, node, peer),
                  flow, cfg) {}

TcpReceiver::~TcpReceiver() { env_.detach(flow_); }

void TcpReceiver::receive(net::Packet p) {
  RRTCP_ASSERT_MSG(p.is_data(), "receiver got a non-data packet");
  ++stats_.data_packets;
  struct ProgressGuard {
    TcpReceiver* self;
    ~ProgressGuard() {
      const std::uint64_t u = self->unique_bytes();
      if (u > self->last_unique_) {
        self->last_unique_ = u;
        if (self->progress_fn_) self->progress_fn_(self->env_.now(), u);
      }
    }
  } guard{this};
  const std::uint64_t seq = p.tcp.seq;
  const std::uint32_t len = p.tcp.payload;
  RRTCP_ASSERT(len > 0);

  if (cfg_.ecn_enabled) {
    if (p.tcp.ce) ece_pending_ = true;
    if (p.tcp.cwr) ece_pending_ = false;  // sender has reacted
  }

  if (seq == rcv_nxt_) {
    deliver_in_order(seq, len);
    // In-order arrival: eligible for delayed ACK.
    if (cfg_.delayed_ack && !ack_pending_) {
      ack_pending_ = true;
      delack_timer_.schedule(cfg_.delack_timeout);
    } else {
      send_ack(false);
    }
    check_notify();
    return;
  }

  if (seq + len <= rcv_nxt_) {
    // Entirely old (a spurious retransmission): re-ACK so the sender's
    // cumulative state converges.
    ++stats_.duplicates;
    send_ack(true);
    return;
  }

  // Out of order (a hole precedes it). The delayed-ACK mechanism is off for
  // out-of-sequence data: ACK immediately (Section 2.2).
  ++stats_.out_of_order;
  store_out_of_order(seq, len);
  send_ack(true);
}

void TcpReceiver::deliver_in_order(std::uint64_t seq, std::uint32_t len) {
  RRTCP_ASSERT(seq == rcv_nxt_);
  rcv_nxt_ += len;
  note_recent_block(seq, rcv_nxt_);
  // Pull any now-contiguous buffered intervals across.
  std::size_t consumed = 0;
  while (consumed < ooo_.size() && ooo_[consumed].begin <= rcv_nxt_) {
    rcv_nxt_ = std::max(rcv_nxt_, ooo_[consumed].end);
    ++consumed;
  }
  if (consumed > 0)
    ooo_.erase(ooo_.begin(),
               ooo_.begin() + static_cast<std::ptrdiff_t>(consumed));
  // Blocks at or below rcv_nxt_ are no longer reportable as SACK blocks.
  std::erase_if(recent_blocks_, [this](std::uint64_t b) {
    return b < rcv_nxt_ || find_ooo(b) == nullptr;
  });
}

void TcpReceiver::store_out_of_order(std::uint64_t seq, std::uint32_t len) {
  std::uint64_t begin = seq;
  std::uint64_t end = seq + len;
  // Merge with any overlapping or adjacent intervals: absorb a predecessor
  // that reaches `begin`, then every successor starting at or before `end`.
  auto ge = std::lower_bound(
      ooo_.begin(), ooo_.end(), begin,
      [](const OooInterval& iv, std::uint64_t b) { return iv.begin < b; });
  std::size_t lo = static_cast<std::size_t>(ge - ooo_.begin());
  std::size_t hi = lo;
  if (lo > 0 && ooo_[lo - 1].end >= begin) {
    --lo;
    begin = ooo_[lo].begin;
    end = std::max(end, ooo_[lo].end);
    forget_recent_block(ooo_[lo].begin);
  }
  while (hi < ooo_.size() && ooo_[hi].begin <= end) {
    end = std::max(end, ooo_[hi].end);
    forget_recent_block(ooo_[hi].begin);
    ++hi;
  }
  // Replace the absorbed run [lo, hi) with the single merged interval.
  if (hi == lo) {
    // ooo_ reserves 64 slots in the constructor and the hole count is
    // window-bounded; capacity is retained across loss episodes, so this
    // insert shifts, never grows.
    // NOLINTNEXTLINE(rrtcp-hot-path-alloc)
    ooo_.insert(ooo_.begin() + static_cast<std::ptrdiff_t>(lo),
                OooInterval{begin, end});
  } else {
    ooo_[lo] = OooInterval{begin, end};
    ooo_.erase(ooo_.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
               ooo_.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  note_recent_block(begin, end);
}

void TcpReceiver::note_recent_block(std::uint64_t begin, std::uint64_t end) {
  (void)end;
  // Only out-of-order intervals are SACK-reportable; in-order delivery
  // passes begin < rcv_nxt_ and is filtered in deliver_in_order().
  forget_recent_block(begin);
  // recent_blocks_ reserves 9 slots (hard cap 8 + the transient insert)
  // in the constructor, so this front-insert shifts within pinned
  // capacity and the resize below only ever shrinks.
  // NOLINTNEXTLINE(rrtcp-hot-path-alloc)
  recent_blocks_.insert(recent_blocks_.begin(), begin);
  // NOLINTNEXTLINE(rrtcp-hot-path-alloc)
  if (recent_blocks_.size() > 8) recent_blocks_.resize(8);
}

void TcpReceiver::forget_recent_block(std::uint64_t begin) {
  recent_blocks_.erase(
      std::remove(recent_blocks_.begin(), recent_blocks_.end(), begin),
      recent_blocks_.end());
}

const TcpReceiver::OooInterval* TcpReceiver::find_ooo(
    std::uint64_t begin) const {
  auto it = std::lower_bound(
      ooo_.begin(), ooo_.end(), begin,
      [](const OooInterval& iv, std::uint64_t b) { return iv.begin < b; });
  if (it == ooo_.end() || it->begin != begin) return nullptr;
  return &*it;
}

void TcpReceiver::fill_sack_blocks(net::TcpHeader& h) const {
  h.n_sack = 0;
  for (std::uint64_t begin : recent_blocks_) {
    const OooInterval* iv = find_ooo(begin);
    if (iv == nullptr) continue;
    h.set_sack_block(h.n_sack++, net::SackBlock{iv->begin, iv->end});
    if (h.n_sack == net::kMaxSackBlocks) break;
  }
}

void TcpReceiver::send_ack(bool duplicate) {
  ack_pending_ = false;
  delack_timer_.cancel();

  net::Packet ack;
  ack.uid = net::packet_uid(flow_, net::PacketType::kAck, stats_.acks_sent);
  ack.flow = flow_;
  ack.dst = peer_;
  ack.type = net::PacketType::kAck;
  ack.size_bytes = cfg_.ack_bytes;
  ack.tcp.ack = rcv_nxt_;
  ack.tcp.ece = ece_pending_;
  if (cfg_.sack_enabled) fill_sack_blocks(ack.tcp);
  ++stats_.acks_sent;
  if (duplicate) ++stats_.dupacks_sent;
  RRTCP_ENV_TRACE(env_, "tcp-rcv", "flow=%u ack=%llu dup=%d nsack=%d",
                  flow_, static_cast<unsigned long long>(rcv_nxt_), duplicate,
                  ack.tcp.n_sack);
  env_.send(std::move(ack));
}

std::uint64_t TcpReceiver::buffered_out_of_order() const {
  std::uint64_t total = 0;
  for (const OooInterval& iv : ooo_) total += iv.end - iv.begin;
  return total;
}

void TcpReceiver::notify_at(std::uint64_t bytes,
                            std::function<void(sim::Time)> fn) {
  notify_bytes_ = bytes;
  notify_fn_ = std::move(fn);
  check_notify();
}

void TcpReceiver::check_notify() {
  if (notify_fn_ && rcv_nxt_ >= notify_bytes_) {
    auto fn = std::move(notify_fn_);
    notify_fn_ = nullptr;
    fn(env_.now());
  }
}

}  // namespace rrtcp::tcp
