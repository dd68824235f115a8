#include "live/live_env.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

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

  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (timer_fd_ < 0) die("timerfd_create");

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) die("epoll_create1");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = sock_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, sock_fd_, &ev) != 0)
    die("epoll_ctl(socket)");
  ev.data.fd = timer_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev) != 0)
    die("epoll_ctl(timerfd)");

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
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (timer_fd_ >= 0) ::close(timer_fd_);
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
  std::uint8_t buf[kMaxWireDatagram];
  const std::size_t n = encode(p, buf, sizeof buf);
  RRTCP_ASSERT_MSG(n > 0, "live: unencodable packet");
  const ssize_t rc =
      ::sendto(sock_fd_, buf, n, 0,
               reinterpret_cast<const sockaddr*>(peer_addr_), peer_addr_len_);
  // A full socket buffer (EAGAIN/ENOBUFS) is a legitimate packet drop: the
  // kernel queue is this transport's bottleneck queue. TCP recovers.
  if (rc >= 0) ++sent_;
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
  if (slot.deadline < programmed_) program_timerfd(slot.deadline);
}

void LiveEnvironment::timer_cancel(TimerId id) {
  RRTCP_DASSERT(id < timers_.size() && timers_[id].live);
  timers_[id].armed = false;
}

bool LiveEnvironment::timer_pending(TimerId id) const {
  RRTCP_DASSERT(id < timers_.size() && timers_[id].live);
  return timers_[id].armed;
}

void LiveEnvironment::program_timerfd(sim::Time deadline) {
  // Absolute CLOCK_MONOTONIC expiry; infinity disarms (zero it_value).
  itimerspec its{};
  if (deadline != sim::Time::infinity()) {
    std::int64_t ns = epoch_ns_ + deadline.ps() / 1'000;
    if (ns <= 0) ns = 1;  // already due: fire immediately
    its.it_value.tv_sec = ns / 1'000'000'000;
    its.it_value.tv_nsec = ns % 1'000'000'000;
  }
  if (::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &its, nullptr) != 0)
    die("timerfd_settime");
  programmed_ = deadline;
}

int LiveEnvironment::fire_due_timers() {
  // Drain the timerfd's expiry count, then fire every due timer in
  // (deadline, arm-order) — the simulator's determinism contract. The
  // wake-up may be early (its timer was cancelled or re-armed later);
  // either way the timerfd is reprogrammed to the true earliest deadline.
  std::uint64_t expirations = 0;
  const ssize_t drained = ::read(timer_fd_, &expirations, sizeof expirations);
  (void)drained;  // an empty timerfd (EAGAIN) is fine — we scan deadlines
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
  sim::Time earliest = sim::Time::infinity();  // infinity disarms
  for (const TimerSlot& s : timers_) {
    if (s.live && s.armed && s.deadline < earliest) earliest = s.deadline;
  }
  program_timerfd(earliest);
  return fired;
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
      if (errno == EINTR) continue;
      // ECONNREFUSED from a previous send's ICMP error: ignore, keep going.
      continue;
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
  epoll_event events[4];
  int n = ::epoll_wait(epoll_fd_, events, 4, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return 0;
    die("epoll_wait");
  }
  int dispatched = 0;
  for (int i = 0; i < n; ++i) {
    if (events[i].data.fd == timer_fd_) dispatched += fire_due_timers();
    if (events[i].data.fd == sock_fd_) dispatched += drain_socket();
  }
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
