// Registry of TCP sender variants.
//
// One table maps a Variant to everything construction needs to know about
// it: its canonical name, a maker for the sender object, and whether its
// receiver must generate SACK blocks. make_flow(), the benches, the sweep
// harness, the chaos soak and the live UDP tool all construct senders
// through SenderFactory::make(), so adding a variant means adding ONE
// registry entry — not editing a switch in every driver.
//
// Makers are environment-based: they take the env::Environment the sender
// will live in, which is what lets one registry serve both the simulator
// (env::SimEnvironment) and the live UDP transport (live::LiveEnvironment).
#pragma once

#include <cstddef>
#include <cstdio>
#include <memory>
#include <string_view>

#include "app/variant.hpp"
#include "env/environment.hpp"
#include "tcp/sender_base.hpp"

namespace rrtcp::app {

class SenderFactory {
 public:
  using Maker = std::unique_ptr<tcp::TcpSenderBase> (*)(
      env::Environment& env, net::FlowId flow, const tcp::TcpConfig& cfg);

  struct Entry {
    const char* name = nullptr;  // canonical lowercase CLI/CSV name
    Maker make = nullptr;
    // True when the variant's receiver must generate SACK blocks (the
    // factory is the one place that knows this pairing — RR's headline
    // deployment property is that it does NOT need them).
    bool sack_receiver = false;
  };

  // The process-wide registry, pre-populated with the paper's five
  // variants plus the related-work schemes.
  static const SenderFactory& instance();

  // Registry lookup; never fails for a valid Variant enumerator.
  const Entry& at(Variant v) const;

  // Constructs a sender of variant `v` living in `env`.
  std::unique_ptr<tcp::TcpSenderBase> make(Variant v, env::Environment& env,
                                           net::FlowId flow,
                                           const tcp::TcpConfig& cfg) const;

  const char* name_of(Variant v) const { return at(v).name; }
  // One line per registered variant (canonical name + receiver pairing):
  // the CLIs' --list-variants output.
  void print_registry(std::FILE* out) const;
  // Parses a canonical name (case-sensitive); throws std::invalid_argument
  // for anything not in the registry.
  Variant parse(std::string_view name) const;

 private:
  SenderFactory();
  static constexpr std::size_t kVariantCount = 7;
  Entry entries_[kVariantCount];
};

}  // namespace rrtcp::app
