#include "app/sender_factory.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/rr_sender.hpp"
#include "tcp/newreno.hpp"
#include "tcp/related_work.hpp"
#include "tcp/reno.hpp"
#include "tcp/sack.hpp"
#include "tcp/tahoe.hpp"

namespace rrtcp::app {

namespace {

template <typename Sender>
std::unique_ptr<tcp::TcpSenderBase> make_sender(env::Environment& env,
                                                net::FlowId flow,
                                                const tcp::TcpConfig& cfg) {
  return std::make_unique<Sender>(env, flow, cfg);
}

}  // namespace

SenderFactory::SenderFactory() {
  auto set = [this]<typename Sender>(Variant v, const char* name,
                                     std::type_identity<Sender>,
                                     bool sack_receiver) {
    entries_[static_cast<std::size_t>(v)] =
        Entry{name, &make_sender<Sender>, sack_receiver};
  };
  set(Variant::kTahoe, "tahoe", std::type_identity<tcp::TahoeSender>{}, false);
  set(Variant::kReno, "reno", std::type_identity<tcp::RenoSender>{}, false);
  set(Variant::kNewReno, "newreno", std::type_identity<tcp::NewRenoSender>{},
      false);
  set(Variant::kSack, "sack", std::type_identity<tcp::SackSender>{}, true);
  set(Variant::kRr, "rr", std::type_identity<core::RrSender>{}, false);
  set(Variant::kRightEdge, "rightedge",
      std::type_identity<tcp::RightEdgeSender>{}, false);
  set(Variant::kLinKung, "linkung", std::type_identity<tcp::LinKungSender>{},
      false);
}

const SenderFactory& SenderFactory::instance() {
  static const SenderFactory registry;
  return registry;
}

const SenderFactory::Entry& SenderFactory::at(Variant v) const {
  const auto i = static_cast<std::size_t>(v);
  if (i >= kVariantCount || entries_[i].make == nullptr)
    throw std::invalid_argument("variant not registered");
  return entries_[i];
}

std::unique_ptr<tcp::TcpSenderBase> SenderFactory::make(
    Variant v, env::Environment& env, net::FlowId flow,
    const tcp::TcpConfig& cfg) const {
  return at(v).make(env, flow, cfg);
}

void SenderFactory::print_registry(std::FILE* out) const {
  // Listed alphabetically, not in enum order: the output is part of the
  // CLIs' --list-variants surface (scripts grep it, docs quote it), so it
  // must not reshuffle when a variant is added mid-enum.
  std::array<std::size_t, kVariantCount> order{};
  std::size_t n = 0;
  for (std::size_t i = 0; i < kVariantCount; ++i)
    if (entries_[i].name != nullptr) order[n++] = i;
  std::sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(n),
            [this](std::size_t a, std::size_t b) {
              return std::strcmp(entries_[a].name, entries_[b].name) < 0;
            });
  std::fprintf(out, "registered TCP sender variants:\n");
  for (std::size_t k = 0; k < n; ++k) {
    const Entry& e = entries_[order[k]];
    std::fprintf(out, "  %-10s (%s receiver)\n", e.name,
                 e.sack_receiver ? "SACK" : "cumulative-ACK");
  }
}

Variant SenderFactory::parse(std::string_view name) const {
  for (std::size_t i = 0; i < kVariantCount; ++i) {
    if (entries_[i].name != nullptr && name == entries_[i].name)
      return static_cast<Variant>(i);
  }
  throw std::invalid_argument("unknown TCP variant: " + std::string(name));
}

const char* to_string(Variant v) { return SenderFactory::instance().name_of(v); }

Variant variant_from_string(std::string_view name) {
  return SenderFactory::instance().parse(name);
}

}  // namespace rrtcp::app
