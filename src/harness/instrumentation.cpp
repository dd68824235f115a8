#include "harness/instrumentation.hpp"

namespace rrtcp::harness {

Instrumentation::Instrumentation(sim::Simulator& sim,
                                 InstrumentationOptions opts)
    : sim_{sim}, opts_{opts} {
  switch (opts_.audit) {
    case AuditMode::kNone:
      break;
    case AuditMode::kBuildGated:
      gated_ = std::make_unique<audit::ScopedAudit>(sim_);
      break;
    case AuditMode::kRecord:
      recording_ = std::make_unique<audit::AuditSession>(
          sim_, audit::AuditSession::FailMode::kRecord);
      break;
  }
  if (opts_.watchdog) {
    watchdog_ = std::make_unique<chaos::LivenessWatchdog>(
        sim_, opts_.watchdog_config, chaos::LivenessWatchdog::FailMode::kRecord);
  }
}

Instrumentation::~Instrumentation() {
  for (auto& fi : flows_) {
    if (fi->sender == nullptr) continue;
    if (fi->phases) fi->sender->remove_observer(fi->phases.get());
    if (fi->seq) fi->sender->remove_observer(fi->seq.get());
    if (fi->meter) fi->sender->remove_observer(fi->meter.get());
  }
}

FlowInstruments& Instrumentation::attach(app::Flow& flow) {
  auto fi = std::make_unique<FlowInstruments>();
  fi->sender = flow.sender.get();
  if (opts_.tracers) {
    fi->meter = std::make_unique<stats::ThroughputMeter>();
    fi->seq = std::make_unique<stats::SeqTracer>(flow.sender->config().mss);
    fi->phases = std::make_unique<stats::PhaseTracer>();
    flow.sender->add_observer(fi->meter.get());
    flow.sender->add_observer(fi->seq.get());
    flow.sender->add_observer(fi->phases.get());
  }
  if (gated_) gated_->attach(*flow.sender, flow.receiver.get());
  if (recording_) recording_->attach(*flow.sender, flow.receiver.get());
  if (watchdog_) watchdog_->attach(*flow.sender);
  flows_.push_back(std::move(fi));
  return *flows_.back();
}

void Instrumentation::attach_queues(topo::TopologyGraph& graph,
                                    const std::vector<int>& links) {
  for (int l : links) {
    const char* name = graph.spec().links.at(static_cast<std::size_t>(l))
                           .name.c_str();
    if (gated_) gated_->attach_link(graph.link(l), name);
    if (recording_) recording_->attach_link(graph.link(l), name);
  }
}

std::size_t Instrumentation::audit_violations() const {
  return recording_ ? recording_->total_violations() : 0;
}

}  // namespace rrtcp::harness
