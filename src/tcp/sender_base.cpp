#include "tcp/sender_base.hpp"

#include <algorithm>

#include "env/sim_env.hpp"
#include "sim/assert.hpp"
#include "sim/log.hpp"

namespace rrtcp::tcp {

TcpSenderBase::TcpSenderBase(env::Environment& env, net::FlowId flow,
                             TcpConfig cfg)
    : env_{env},
      cfg_{cfg},
      flow_{flow},
      dst_{env.peer_id()},
      rto_{cfg},
      rto_timer_{env, [this] { on_retransmission_timeout(); }} {
  RRTCP_ASSERT(cfg_.mss > 0);
  RRTCP_ASSERT(cfg_.init_cwnd_pkts >= 1);
  RRTCP_ASSERT(cfg_.dupack_threshold >= 1);
  cwnd_ = cfg_.init_cwnd_pkts * cfg_.mss;
  ssthresh_ = cfg_.init_ssthresh_pkts * cfg_.mss;
  env_.attach(flow_, this);
}

TcpSenderBase::TcpSenderBase(std::unique_ptr<env::Environment> owned,
                             net::FlowId flow, TcpConfig cfg)
    : TcpSenderBase(*owned, flow, cfg) {
  owned_env_ = std::move(owned);
}

TcpSenderBase::TcpSenderBase(sim::Simulator& sim, net::Node& node,
                             net::FlowId flow, net::NodeId dst, TcpConfig cfg)
    : TcpSenderBase(std::make_unique<env::SimEnvironment>(sim, node, dst),
                    flow, cfg) {}

TcpSenderBase::~TcpSenderBase() { env_.detach(flow_); }

void TcpSenderBase::app_enqueue(std::uint64_t bytes) {
  RRTCP_ASSERT_MSG(app_total_.has_value(),
                   "app_enqueue on an unbounded sender");
  if (bytes == 0) return;
  *app_total_ += bytes;
  // transmit() re-arms the RTO timer when it is idle, so waking from an
  // empty-backlog lull needs no extra timer management here.
  if (started_) send_new_data();
}

void TcpSenderBase::start() {
  RRTCP_ASSERT_MSG(!started_, "sender started twice");
  started_ = true;
  start_time_ = env_.now();
  update_open_phase();
  send_new_data();
}

// ---------------------------------------------------------------------------
// Segmentation

std::uint32_t TcpSenderBase::segment_len_at(std::uint64_t seq) const {
  if (!app_total_) return cfg_.mss;
  RRTCP_ASSERT(seq < *app_total_);
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(cfg_.mss, *app_total_ - seq));
}

bool TcpSenderBase::app_data_available() const {
  return !app_total_ || snd_nxt_ < *app_total_;
}

std::uint64_t TcpSenderBase::effective_window() const {
  return std::min(cwnd_, max_window_bytes());
}

// ---------------------------------------------------------------------------
// Transmission

void TcpSenderBase::transmit(std::uint64_t seq, std::uint32_t len,
                             bool is_rtx) {
  RRTCP_ASSERT(len > 0 && len <= net::kMaxPayloadBytes);
  net::Packet p;
  p.uid = net::packet_uid(flow_, net::PacketType::kData,
                          stats_.data_packets_sent + stats_.retransmissions);
  p.flow = flow_;
  p.dst = dst_;
  p.type = net::PacketType::kData;
  p.size_bytes = cfg_.mss;  // fixed on-wire size, paper convention
  p.tcp.seq = seq;
  p.tcp.payload = static_cast<std::uint16_t>(len);
  p.tcp.ect = cfg_.ecn_enabled;
  if (cwr_pending_) {
    p.tcp.cwr = true;
    cwr_pending_ = false;
  }

  if (is_rtx) {
    ++stats_.retransmissions;
    // Karn's rule: a retransmission of (or overlapping) the timed segment
    // invalidates the measurement.
    if (timing_ && seq <= timed_seq_) timing_ = false;
  } else {
    ++stats_.data_packets_sent;
    if (!timing_) {
      timing_ = true;
      timed_seq_ = seq;
      timed_at_ = env_.now();
    }
  }

  if (!rto_timer_.pending()) restart_rto_timer();

  RRTCP_ENV_TRACE(env_, variant_name(), "flow=%u send seq=%llu len=%u rtx=%d",
                  flow_, static_cast<unsigned long long>(seq), len, is_rtx);
  notify_send(seq, len, is_rtx);
  env_.send(std::move(p));
}

bool TcpSenderBase::send_one_new_segment(bool ignore_rwnd) {
  if (!app_data_available()) return false;
  if (!ignore_rwnd && snd_nxt_ - snd_una_ >= max_window_bytes()) return false;
  const std::uint32_t len = segment_len_at(snd_nxt_);
  const bool is_rtx = snd_nxt_ < max_sent_;  // rolled back after a timeout
  transmit(snd_nxt_, len, is_rtx);
  snd_nxt_ += len;
  max_sent_ = std::max(max_sent_, snd_nxt_);
  return true;
}

int TcpSenderBase::send_new_data(int max_packets) {
  int sent = 0;
  while (sent < max_packets && app_data_available() &&
         flight_bytes() + segment_len_at(snd_nxt_) <= effective_window()) {
    if (!send_one_new_segment()) break;
    ++sent;
  }
  return sent;
}

void TcpSenderBase::retransmit(std::uint64_t seq) {
  RRTCP_ASSERT(seq >= snd_una_ && seq < max_sent_);
  transmit(seq, segment_len_at(seq), true);
}

// ---------------------------------------------------------------------------
// Window management

void TcpSenderBase::open_cwnd() {
  if (cwnd_ < ssthresh_) {
    if (cfg_.smooth_start && cwnd_ >= ssthresh_ / 2) {
      // Smooth-Start: halve the growth rate through the upper half of the
      // slow-start region (+1 MSS per two ACKs).
      smooth_pending_ = !smooth_pending_;
      if (smooth_pending_) return;
    }
    set_cwnd(cwnd_ + cfg_.mss);  // slow start: +1 MSS per ACK
  } else {
    // Congestion avoidance: +MSS per window's worth of ACKs.
    set_cwnd(cwnd_ + std::max<std::uint64_t>(
                         1, static_cast<std::uint64_t>(cfg_.mss) * cfg_.mss /
                                std::max<std::uint64_t>(cwnd_, 1)));
  }
  update_open_phase();
}

void TcpSenderBase::halve_ssthresh() {
  const std::uint64_t window = std::min(cwnd_, max_window_bytes());
  ssthresh_ = std::max<std::uint64_t>(2 * cfg_.mss, window / 2);
}

void TcpSenderBase::set_cwnd(std::uint64_t bytes) {
  cwnd_ = std::max<std::uint64_t>(bytes, cfg_.mss);
  for (auto* o : observers_) o->on_cwnd(env_.now(), cwnd_packets());
}

void TcpSenderBase::set_phase(TcpPhase p) {
  if (phase_ == p) return;
  phase_ = p;
  RRTCP_ENV_DEBUG(env_, variant_name(), "flow=%u phase -> %s", flow_,
                  to_string(p));
  for (auto* o : observers_) o->on_phase(env_.now(), p);
}

void TcpSenderBase::update_open_phase() {
  set_phase(cwnd_ < ssthresh_ ? TcpPhase::kSlowStart
                              : TcpPhase::kCongestionAvoidance);
}

// ---------------------------------------------------------------------------
// ACK processing

void TcpSenderBase::receive(net::Packet p) {
  RRTCP_ASSERT_MSG(p.is_ack(), "sender got a non-ACK packet");
  ++stats_.acks_received;
  const net::TcpHeader& h = p.tcp;

  if (cfg_.ecn_enabled && h.ece) handle_ecn_echo();

  if (h.ack > snd_una_) {
    const std::uint64_t newly = h.ack - snd_una_;
    stats_.bytes_acked += newly;
    maybe_sample_rtt(h.ack);
    snd_una_ = h.ack;
    snd_nxt_ = std::max(snd_nxt_, snd_una_);
    dupacks_ = 0;
    if (snd_una_ >= max_sent_ && !app_data_available()) {
      stop_rto_timer();
    } else {
      restart_rto_timer();
    }
    notify_ack(h.ack, false);
    handle_new_ack(h, newly);
    check_complete();
    notify_ack_processed(h.ack, false);
    return;
  }

  if (h.ack == snd_una_ && flight_bytes() > 0) {
    ++stats_.dupacks_received;
    ++dupacks_;
    notify_ack(h.ack, true);
    handle_dup_ack(h);
    notify_ack_processed(h.ack, true);
    return;
  }
  // Old ACK (below snd_una_): ignore.
}

void TcpSenderBase::handle_ecn_echo() {
  // RFC 3168: at most one window reduction per RTT, and none while a
  // loss-recovery episode is already shrinking the window.
  if (snd_una_ < ecn_cwr_point_) return;
  if (phase_ != TcpPhase::kSlowStart &&
      phase_ != TcpPhase::kCongestionAvoidance)
    return;
  ++stats_.ecn_reductions;
  halve_ssthresh();
  set_cwnd(ssthresh_);
  update_open_phase();
  ecn_cwr_point_ = snd_nxt_;
  cwr_pending_ = true;  // tell the receiver on the next data segment
  RRTCP_ENV_DEBUG(env_, variant_name(), "flow=%u ECN reduce, cwnd=%.1f",
                  flow_, cwnd_packets());
}

void TcpSenderBase::maybe_sample_rtt(std::uint64_t ack) {
  if (!timing_ || ack <= timed_seq_) return;
  timing_ = false;
  rto_.sample(env_.now() - timed_at_);
  ++stats_.rtt_samples;
}

void TcpSenderBase::check_complete() {
  if (!complete() || completed_at_ > sim::Time::zero()) return;
  completed_at_ = env_.now();
  stop_rto_timer();
  RRTCP_ENV_INFO(env_, variant_name(), "flow=%u transfer complete (%llu B)",
                 flow_, static_cast<unsigned long long>(*app_total_));
  if (complete_fn_) complete_fn_(completed_at_);
}

// ---------------------------------------------------------------------------
// Timeout

void TcpSenderBase::restart_rto_timer() { rto_timer_.schedule(rto_.rto()); }

void TcpSenderBase::stop_rto_timer() { rto_timer_.cancel(); }

void TcpSenderBase::on_retransmission_timeout() {
  if (snd_una_ >= max_sent_ && !app_data_available()) return;  // stale fire
  ++stats_.timeouts;
  for (auto* o : observers_) o->on_timeout(env_.now());
  RRTCP_ENV_DEBUG(env_, variant_name(), "flow=%u RTO (una=%llu)", flow_,
                  static_cast<unsigned long long>(snd_una_));

  rto_.backoff();
  halve_ssthresh();
  set_cwnd(cfg_.mss);
  dupacks_ = 0;
  timing_ = false;  // Karn: no sample across a timeout
  handle_timeout_cleanup();
  set_phase(TcpPhase::kRtoRecovery);

  // Go-back-N: resume from the lowest unACKed byte. The receiver holds any
  // delivered out-of-order data and re-ACKs duplicates, so correctness is
  // preserved; the cost (resending dormant data) is the classic one.
  snd_nxt_ = snd_una_;
  send_new_data();  // cwnd is 1 MSS: retransmits exactly the first segment
  restart_rto_timer();
}

// ---------------------------------------------------------------------------
// Observers

void TcpSenderBase::notify_send(std::uint64_t seq, std::uint32_t len,
                                bool rtx) {
  for (auto* o : observers_) o->on_send(env_.now(), seq, len, rtx);
}

void TcpSenderBase::notify_ack(std::uint64_t ack, bool dup) {
  for (auto* o : observers_) o->on_ack(env_.now(), ack, dup);
}

void TcpSenderBase::notify_ack_processed(std::uint64_t ack, bool dup) {
  for (auto* o : observers_) o->on_ack_processed(env_.now(), ack, dup);
}

}  // namespace rrtcp::tcp
