#include "live/live_env.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <string>
#include <utility>

#include "live/wire.hpp"
#include "sim/assert.hpp"

namespace rrtcp::live {

namespace {

// A UDP GSO run (see the file comment of live_env.hpp): at most this many
// segments, this many bytes in all (the IPv4 UDP payload limit), and
// segments no larger than a 1,500-byte Ethernet MTU less IP and UDP
// headers.
constexpr std::size_t kGsoMaxSegments = 64;
constexpr std::size_t kGsoMaxBytes = 65'507;
constexpr std::size_t kGsoMaxSegmentBytes = 1'472;

static_assert(kMaxWireDatagram <= UINT16_MAX,
              "outbox lengths are 16-bit");

[[noreturn]] void die(const char* what) {
  throw std::runtime_error(std::string("live: ") + what + ": " +
                           std::strerror(errno));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &a.sin_addr) != 1)
    throw std::runtime_error("live: bad IPv4 address: " + host);
  return a;
}

}  // namespace

LiveEnvironment::LiveEnvironment(LiveConfig cfg) : cfg_{std::move(cfg)} {
  static_assert(sizeof(sockaddr_in) <= sizeof(peer_addr_));

  sock_fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (sock_fd_ < 0) die("socket");
  sockaddr_in bind_sa = make_addr(cfg_.bind_addr, cfg_.bind_port);
  if (::bind(sock_fd_, reinterpret_cast<sockaddr*>(&bind_sa),
             sizeof(bind_sa)) != 0)
    die("bind");
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (::getsockname(sock_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) != 0)
    die("getsockname");
  local_port_ = ntohs(bound.sin_port);

  if (!cfg_.peer_addr.empty()) {
    sockaddr_in peer = make_addr(cfg_.peer_addr, cfg_.peer_port);
    std::memcpy(peer_addr_, &peer, sizeof(peer));
    peer_addr_len_ = sizeof(peer);
    peer_known_ = true;
  }

  epoch_ns_ = monotonic_ns();

  filters_.reserve(cfg_.faults.faults.size());
  std::size_t i = 0;
  for (const chaos::FaultSpec& spec : cfg_.faults.faults) {
    // Same per-spec stream naming scheme as chaos::FaultInjector, so a
    // schedule printed by the soak is seed-replayable here.
    const std::string stream = "live-filter/" + std::to_string(i++);
    filters_.push_back(ArmedFilter{spec, sim::Rng{cfg_.fault_seed, stream},
                                   /*bad=*/false});
  }
}

LiveEnvironment::~LiveEnvironment() {
  // Datagrams still in the outbox are dropped, as closing a socket would.
  if (sock_fd_ >= 0) ::close(sock_fd_);
}

std::int64_t LiveEnvironment::monotonic_ns() const {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

sim::Time LiveEnvironment::now() const {
  return sim::Time::nanoseconds(monotonic_ns() - epoch_ns_);
}

// ---------------------------------------------------------------------------
// Egress

void LiveEnvironment::send(net::Packet p) {
  if (!peer_known_) {
    ++unroutable_;  // the RTO will retry once the peer introduces itself
    return;
  }
  const std::size_t offset = outbox_.size();
  outbox_.resize(offset + wire_size(p));
  const std::size_t n =
      encode(p, outbox_.data() + offset, outbox_.size() - offset);
  RRTCP_ASSERT_MSG(n == outbox_.size() - offset, "live: unencodable packet");
  outbox_len_.push_back(static_cast<std::uint16_t>(n));
}

void LiveEnvironment::flush() {
  const std::size_t total = outbox_len_.size();
  std::size_t offset = 0;
  for (std::size_t i = 0; i < total;) {
    const std::size_t segment = outbox_len_[i];
    std::size_t count = 1;
    std::size_t bytes = segment;
    if (segment <= kGsoMaxSegmentBytes) {
      while (i + count < total && count < kGsoMaxSegments) {
        const std::size_t next = outbox_len_[i + count];
        if (next > segment || bytes + next > kGsoMaxBytes) break;
        ++count;
        bytes += next;
        if (next < segment) break;  // a shorter datagram closes the run
      }
    }
    send_run(offset, bytes, count, segment);
    i += count;
    offset += bytes;
  }
  outbox_.clear();
  outbox_len_.clear();
}

void LiveEnvironment::send_run(std::size_t offset, std::size_t bytes,
                               std::size_t count, std::size_t segment) {
  iovec iov{outbox_.data() + offset, bytes};
  msghdr msg{};
  msg.msg_name = peer_addr_;
  msg.msg_namelen = peer_addr_len_;
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  alignas(cmsghdr) unsigned char control[CMSG_SPACE(sizeof(std::uint16_t))] =
      {};
  if (count > 1) {
    msg.msg_control = control;
    msg.msg_controllen = sizeof control;
    cmsghdr* cm = CMSG_FIRSTHDR(&msg);
    cm->cmsg_level = SOL_UDP;
    cm->cmsg_type = UDP_SEGMENT;
    cm->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
    const auto gso_size = static_cast<std::uint16_t>(segment);
    std::memcpy(CMSG_DATA(cm), &gso_size, sizeof gso_size);
  }
  for (;;) {
    if (::sendmsg(sock_fd_, &msg, 0) >= 0) {
      sent_ += count;
      return;
    }
    if (errno == EINTR) continue;
    // A full socket buffer is a legitimate drop of the whole run: the
    // kernel queue is this transport's bottleneck queue. TCP recovers.
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) return;
    die("sendmsg");
  }
}

// ---------------------------------------------------------------------------
// Timers

env::Environment::TimerId LiveEnvironment::timer_create(
    std::function<void()> on_fire) {
  TimerId id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  } else {
    id = static_cast<TimerId>(timers_.size());
    timers_.emplace_back();
  }
  TimerSlot& slot = timers_[id];
  slot.on_fire = std::move(on_fire);
  slot.live = true;
  slot.armed = false;
  return id;
}

void LiveEnvironment::timer_destroy(TimerId id) {
  RRTCP_ASSERT(id < timers_.size() && timers_[id].live);
  timers_[id] = TimerSlot{};
  free_.push_back(id);
}

void LiveEnvironment::timer_arm(TimerId id, sim::Time delay) {
  RRTCP_DASSERT(id < timers_.size() && timers_[id].live);
  TimerSlot& slot = timers_[id];
  slot.armed = true;
  slot.deadline = now() + delay;
  slot.arm_seq = next_arm_seq_++;
}

void LiveEnvironment::timer_cancel(TimerId id) {
  RRTCP_DASSERT(id < timers_.size() && timers_[id].live);
  timers_[id].armed = false;
}

bool LiveEnvironment::timer_pending(TimerId id) const {
  RRTCP_DASSERT(id < timers_.size() && timers_[id].live);
  return timers_[id].armed;
}

int LiveEnvironment::fire_due_timers() {
  // Fire every due timer in (deadline, arm-order) — the simulator's
  // determinism contract. A callback may arm a timer that is already due;
  // it fires in this same pass.
  int fired = 0;
  for (;;) {
    const sim::Time t = now();
    TimerId best = env::Environment::kInvalidTimer;
    for (TimerId id = 0; id < timers_.size(); ++id) {
      const TimerSlot& s = timers_[id];
      if (!s.live || !s.armed || s.deadline > t) continue;
      if (best == env::Environment::kInvalidTimer ||
          s.deadline < timers_[best].deadline ||
          (s.deadline == timers_[best].deadline &&
           s.arm_seq < timers_[best].arm_seq))
        best = id;
    }
    if (best == env::Environment::kInvalidTimer) break;
    timers_[best].armed = false;
    timers_[best].on_fire();  // may re-arm, create, or destroy timers
    ++fired;
  }
  return fired;
}

sim::Time LiveEnvironment::earliest_deadline() const {
  sim::Time earliest = sim::Time::infinity();
  for (const TimerSlot& s : timers_) {
    if (s.live && s.armed && s.deadline < earliest) earliest = s.deadline;
  }
  return earliest;
}

void LiveEnvironment::wait_readable(sim::Time until) {
  // Sleeps until the socket is readable or `until` (environment clock)
  // passes; infinity waits for the socket alone. The relative timeout is
  // rounded up to whole nanoseconds so the wake-up is never early.
  timespec ts{};
  const timespec* timeout = nullptr;
  if (until != sim::Time::infinity()) {
    const std::int64_t ps = std::max<std::int64_t>((until - now()).ps(), 0);
    const std::int64_t ns = (ps + 999) / 1'000;
    ts.tv_sec = ns / 1'000'000'000;
    ts.tv_nsec = ns % 1'000'000'000;
    timeout = &ts;
  }
  pollfd pfd{sock_fd_, POLLIN, 0};
  if (::ppoll(&pfd, 1, timeout, nullptr) < 0 && errno != EINTR) die("ppoll");
}

// ---------------------------------------------------------------------------
// Ingress

bool LiveEnvironment::ingress_filtered(const net::Packet& p) {
  const sim::Time t = now();
  for (ArmedFilter& f : filters_) {
    const bool in_window = f.spec.active_at(t);
    switch (f.spec.kind) {
      case chaos::FaultKind::kOutage:
      case chaos::FaultKind::kBlackhole:
        if (in_window) return true;
        break;
      case chaos::FaultKind::kAckLoss:
        if (in_window && p.is_ack() && f.rng.bernoulli(f.spec.probability))
          return true;
        break;
      case chaos::FaultKind::kBurstLoss: {
        if (!in_window) break;
        if (f.spec.data_only && !p.is_data()) break;
        // Gilbert-Elliott: advance the chain per arrival, drop in bad state.
        if (f.bad) {
          if (f.rng.bernoulli(f.spec.p_exit_bad)) f.bad = false;
        } else if (f.rng.bernoulli(f.spec.p_enter_bad)) {
          f.bad = true;
        }
        if (f.bad && f.rng.bernoulli(f.spec.loss_in_bad)) return true;
        break;
      }
      case chaos::FaultKind::kAckDuplicate:
      case chaos::FaultKind::kDelaySpike:
      case chaos::FaultKind::kCount:
        break;  // need egress scheduling; not applied live
    }
  }
  return false;
}

int LiveEnvironment::drain_socket() {
  int dispatched = 0;
  std::uint8_t buf[kMaxWireDatagram + 1];
  for (;;) {
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    const ssize_t n = ::recvfrom(sock_fd_, buf, sizeof buf, 0,
                                 reinterpret_cast<sockaddr*>(&from), &from_len);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      // EINTR, or ECONNREFUSED from a previous send's ICMP error (reading
      // it clears it): skip and keep draining.
      if (errno == EINTR || errno == ECONNREFUSED) continue;
      die("recvfrom");
    }
    net::Packet p;
    if (!decode(buf, static_cast<std::size_t>(n), &p)) {
      ++decode_failures_;
      continue;
    }
    if (!peer_known_) {
      // Server role: the first well-formed datagram names our peer.
      std::memcpy(peer_addr_, &from, sizeof(from));
      peer_addr_len_ = from_len;
      peer_known_ = true;
    }
    ++received_;
    if (ingress_filtered(p)) {
      ++filtered_;
      continue;
    }
    p.dst = cfg_.local_id;
    net::Agent** agent = agents_.find(p.flow);
    if (agent == nullptr) {
      ++unroutable_;
      continue;
    }
    (*agent)->receive(std::move(p));
    ++dispatched;
  }
  return dispatched;
}

// ---------------------------------------------------------------------------
// Event loop

int LiveEnvironment::poll(int timeout_ms) {
  flush();  // sends made outside a dispatch, e.g. sender->start()
  int dispatched = fire_due_timers() + drain_socket();
  if (dispatched == 0 && timeout_ms != 0) {
    const sim::Time until =
        timeout_ms < 0 ? sim::Time::infinity()
                       : now() + sim::Time::milliseconds(timeout_ms);
    while (dispatched == 0 && now() < until) {
      wait_readable(std::min(until, earliest_deadline()));
      dispatched = fire_due_timers() + drain_socket();
    }
  }
  flush();
  return dispatched;
}

bool LiveEnvironment::run_until(const std::function<bool()>& done,
                                sim::Time deadline) {
  while (!done()) {
    const sim::Time t = now();
    if (t >= deadline) return false;
    const std::int64_t budget_ms = (deadline - t).ps() / 1'000'000'000;
    poll(static_cast<int>(budget_ms) + 1);
  }
  return true;
}

}  // namespace rrtcp::live
