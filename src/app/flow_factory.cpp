#include "app/flow_factory.hpp"

#include "app/sender_factory.hpp"
#include "env/sim_env.hpp"

namespace rrtcp::app {

tcp::ReceiverConfig receiver_config_for(Variant v, const tcp::TcpConfig& cfg) {
  tcp::ReceiverConfig rcfg;
  rcfg.ack_bytes = cfg.ack_bytes;
  rcfg.sack_enabled = SenderFactory::instance().at(v).sack_receiver;
  rcfg.ecn_enabled = cfg.ecn_enabled;
  return rcfg;
}

Flow make_flow(Variant v, sim::Simulator& sim, net::Node& snd_node,
               net::Node& rcv_node, net::FlowId flow, tcp::TcpConfig cfg) {
  return make_flow(v, sim, snd_node, sim, rcv_node, flow, cfg);
}

Flow make_flow(Variant v, sim::Simulator& snd_sim, net::Node& snd_node,
               sim::Simulator& rcv_sim, net::Node& rcv_node, net::FlowId flow,
               tcp::TcpConfig cfg) {
  Flow f;
  f.snd_env =
      std::make_unique<env::SimEnvironment>(snd_sim, snd_node, rcv_node.id());
  f.rcv_env =
      std::make_unique<env::SimEnvironment>(rcv_sim, rcv_node, snd_node.id());
  f.sender = SenderFactory::instance().make(v, *f.snd_env, flow, cfg);
  f.receiver = std::make_unique<tcp::TcpReceiver>(*f.rcv_env, flow,
                                                  receiver_config_for(v, cfg));
  return f;
}

Flow make_flow(Variant v, env::Environment& snd_env, env::Environment& rcv_env,
               net::FlowId flow, tcp::TcpConfig cfg) {
  Flow f;
  f.sender = SenderFactory::instance().make(v, snd_env, flow, cfg);
  f.receiver = std::make_unique<tcp::TcpReceiver>(rcv_env, flow,
                                                  receiver_config_for(v, cfg));
  return f;
}

}  // namespace rrtcp::app
