// Graceful spec rejection (satellite S1): structurally invalid
// ScenarioSpecs come back from Scenario::validate / Scenario::try_build as
// typed SpecErrors instead of tripping construction-time asserts — the
// contract the fuzz generator (discard-and-resample) and the replay loader
// (bucket a bad file as build-reject) both rest on.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"

namespace rrtcp::harness {
namespace {

using Code = SpecError::Code;

ScenarioSpec minimal_dumbbell() {
  ScenarioSpec spec;
  FlowSpec f;
  f.bytes = 20'000;
  spec.add_flow(f);
  spec.horizon = sim::Time::seconds(30);
  return spec;
}

// A two-node graph with one duplex link and a single flow across it.
ScenarioSpec minimal_graph() {
  ScenarioSpec spec;
  spec.graph.add_node("a");
  spec.graph.add_node("b");
  spec.graph.add_duplex(0, 1, 1'000'000, sim::Time::milliseconds(10), 16);
  FlowSpec f;
  f.bytes = 20'000;
  f.src_node = 0;
  f.dst_node = 1;
  spec.add_flow(f);
  spec.horizon = sim::Time::seconds(30);
  return spec;
}

std::optional<Code> code_of(const ScenarioSpec& spec) {
  const std::optional<SpecError> err = Scenario::validate(spec);
  if (!err) return std::nullopt;
  return err->code;
}

TEST(SpecValidate, MinimalSpecsAreValidAndBuild) {
  EXPECT_EQ(code_of(minimal_dumbbell()), std::nullopt);
  EXPECT_EQ(code_of(minimal_graph()), std::nullopt);
  SpecError err;
  EXPECT_NE(Scenario::try_build(minimal_dumbbell(), &err), nullptr);
  EXPECT_NE(Scenario::try_build(minimal_graph(), &err), nullptr);
}

TEST(SpecValidate, EmptyFlowListRejected) {
  ScenarioSpec spec = minimal_dumbbell();
  spec.flows.clear();
  EXPECT_EQ(code_of(spec), Code::kNoFlows);
}

TEST(SpecValidate, NonPositiveHorizonRejected) {
  ScenarioSpec spec = minimal_dumbbell();
  spec.horizon = sim::Time::zero();
  EXPECT_EQ(code_of(spec), Code::kBadHorizon);
}

TEST(SpecValidate, ZeroBottleneckRateRejected) {
  ScenarioSpec spec = minimal_dumbbell();
  spec.topology.bottleneck_bps = 0;
  EXPECT_EQ(code_of(spec), Code::kBadRate);
}

TEST(SpecValidate, ZeroGraphLinkRateRejected) {
  ScenarioSpec spec = minimal_graph();
  spec.graph.links[0].bandwidth_bps = 0;
  EXPECT_EQ(code_of(spec), Code::kBadRate);
}

TEST(SpecValidate, LinkEndpointOutOfRangeRejected) {
  ScenarioSpec spec = minimal_graph();
  spec.graph.links[0].to = 9;  // only nodes 0 and 1 exist
  EXPECT_EQ(code_of(spec), Code::kBadLink);
}

TEST(SpecValidate, FlowEndpointOutOfRangeRejected) {
  ScenarioSpec spec = minimal_graph();
  spec.flows[0].dst_node = 7;
  EXPECT_EQ(code_of(spec), Code::kBadEndpoint);
}

TEST(SpecValidate, MissingGraphEndpointRejected) {
  ScenarioSpec spec = minimal_graph();
  spec.flows[0].src_node = -1;  // graph mode requires explicit placement
  EXPECT_EQ(code_of(spec), Code::kBadEndpoint);
}

TEST(SpecValidate, DisconnectedEndpointsRejected) {
  // Four nodes, one duplex link between 0 and 1: a flow 2 -> 3 has no
  // path in either direction.
  ScenarioSpec spec = minimal_graph();
  spec.graph.add_node("c");
  spec.graph.add_node("d");
  spec.flows[0].src_node = 2;
  spec.flows[0].dst_node = 3;
  EXPECT_EQ(code_of(spec), Code::kUnroutable);
}

TEST(SpecValidate, OneWayReachabilityStillUnroutable) {
  // A single directed link 0 -> 1: data can cross but ACKs cannot return.
  ScenarioSpec spec = minimal_graph();
  spec.graph.links.pop_back();  // drop the reverse half of the duplex
  EXPECT_EQ(code_of(spec), Code::kUnroutable);
}

TEST(SpecValidate, BadCbrRejected) {
  ScenarioSpec spec = minimal_graph();
  CbrSpec cbr;  // graph mode with no endpoints and no rate
  spec.add_cbr(cbr);
  EXPECT_EQ(code_of(spec), Code::kBadCbr);
}

// A segment's payload is 16 bits on the packet, so an MSS must lie in
// 1..65'535, whether it is set on one flow or on a flow set's prototype.
TEST(SpecValidate, FlowZeroMssRejected) {
  ScenarioSpec spec = minimal_dumbbell();
  spec.flows[0].tcp.mss = 0;
  EXPECT_EQ(code_of(spec), Code::kBadSegment);
}

TEST(SpecValidate, FlowMssAbove16BitsRejected) {
  ScenarioSpec spec = minimal_dumbbell();
  spec.flows[0].tcp.mss = 65'535;
  EXPECT_EQ(code_of(spec), std::nullopt);
  spec.flows[0].tcp.mss = 65'536;
  EXPECT_EQ(code_of(spec), Code::kBadSegment);
}

ScenarioSpec flow_set_spec(std::uint32_t mss) {
  ScenarioSpec spec;
  FlowSet set;
  set.count = 2;
  set.proto.bytes = 20'000;
  set.proto.tcp.mss = mss;
  spec.add_flow_set(set);
  spec.horizon = sim::Time::seconds(30);
  return spec;
}

TEST(SpecValidate, FlowSetZeroMssRejected) {
  EXPECT_EQ(code_of(flow_set_spec(1'000)), std::nullopt);
  EXPECT_EQ(code_of(flow_set_spec(0)), Code::kBadSegment);
}

TEST(SpecValidate, FlowSetMssAbove16BitsRejected) {
  EXPECT_EQ(code_of(flow_set_spec(65'535)), std::nullopt);
  EXPECT_EQ(code_of(flow_set_spec(65'536)), Code::kBadSegment);
}

TEST(SpecValidate, TryBuildReportsTheError) {
  ScenarioSpec spec = minimal_dumbbell();
  spec.flows.clear();
  SpecError err;
  EXPECT_EQ(Scenario::try_build(spec, &err), nullptr);
  EXPECT_EQ(err.code, Code::kNoFlows);
  EXPECT_FALSE(err.detail.empty());
}

TEST(SpecValidate, CodeNamesAreStable) {
  // The fuzz runner embeds these names in bucket keys; renaming one
  // silently orphans checked-in corpus files.
  EXPECT_STREQ(to_string(Code::kNoFlows), "no-flows");
  EXPECT_STREQ(to_string(Code::kBadHorizon), "bad-horizon");
  EXPECT_STREQ(to_string(Code::kBadRate), "bad-rate");
  EXPECT_STREQ(to_string(Code::kBadLink), "bad-link");
  EXPECT_STREQ(to_string(Code::kBadEndpoint), "bad-endpoint");
  EXPECT_STREQ(to_string(Code::kUnroutable), "unroutable");
  EXPECT_STREQ(to_string(Code::kBadCbr), "bad-cbr");
  EXPECT_STREQ(to_string(Code::kBadSegment), "bad-segment");
}

}  // namespace
}  // namespace rrtcp::harness
