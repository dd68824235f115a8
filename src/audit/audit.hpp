// Build-gated convenience wrapper around AuditSession.
//
// Benches and the integration scenario runner audit through ScopedAudit so
// that a default build pays nothing: unless the build defines
// RRTCP_AUDIT_ENABLED (CMake option RRTCP_AUDIT=ON), ScopedAudit is an empty
// struct whose methods compile to nothing, no audit object is constructed,
// and the only residual cost is the senders'/queues' branch-on-null observer
// dispatch. With the option ON, every attach becomes a real AuditSession in
// abort mode: the first violated invariant kills the run with the event ring.
//
// Tests that assert on violations use AuditSession (FailMode::kRecord)
// directly — the audit library itself is always compiled, only this attach
// layer is gated.
#pragma once

#ifdef RRTCP_AUDIT_ENABLED

#include "audit/invariant_auditor.hpp"

namespace rrtcp::audit {

class ScopedAudit {
 public:
  explicit ScopedAudit(sim::Simulator& sim)
      : session_{sim, AuditSession::FailMode::kAbort} {}

  void attach(tcp::TcpSenderBase& sender,
              tcp::TcpReceiver* receiver = nullptr) {
    session_.attach(sender, receiver);
  }
  void attach_link(net::Link& link, const char* name) {
    session_.attach_link(link, name);
  }

  static constexpr bool enabled() { return true; }
  AuditSession& session() { return session_; }

 private:
  AuditSession session_;
};

}  // namespace rrtcp::audit

#else  // !RRTCP_AUDIT_ENABLED

namespace rrtcp::audit {

// No-op stand-in: templates keep the call sites compiling without pulling in
// (or even declaring) the audited types, so the default build stays free of
// any audit dependency.
class ScopedAudit {
 public:
  template <typename Sim>
  explicit ScopedAudit(Sim&) {}

  template <typename Sender>
  void attach(Sender&, void* receiver = nullptr) {
    (void)receiver;
  }
  template <typename Link>
  void attach_link(Link&, const char*) {}

  static constexpr bool enabled() { return false; }
};

}  // namespace rrtcp::audit

#endif  // RRTCP_AUDIT_ENABLED
