// Packet uids are minted per endpoint (net::packet_uid), so a scenario's
// uids depend on nothing outside the scenario: they are the same whether it
// runs alone, after another scenario in the same process or on a sweep
// worker thread, and no two packets of one scenario share a uid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "harness/result_sink.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "testutil.hpp"

namespace rrtcp::harness {
namespace {

using sim::Time;

// Three TCP variants over a shallow drop-tail bottleneck (so there are
// losses and retransmissions), plus a CBR stream on the forward path.
// `flows` varies the scenario so two specs mint different packet counts.
ScenarioSpec uid_spec(int flows) {
  ScenarioSpec spec;
  spec.name = "uid";
  spec.bottleneck = QueueSpec::drop_tail(8);
  spec.horizon = Time::seconds(15);
  spec.instruments.tracers = false;
  spec.instruments.audit = AuditMode::kNone;  // the recorder takes its slot
  const app::Variant variants[] = {app::Variant::kRr, app::Variant::kNewReno,
                                   app::Variant::kSack};
  for (int i = 0; i < flows; ++i) {
    FlowSpec f;
    f.variant = variants[i % 3];
    f.start = Time::milliseconds(50) * i;
    f.bytes = 150'000;
    spec.add_flow(f);
  }
  CbrSpec c;
  c.load_fraction = 0.2;
  c.start = Time::milliseconds(200);
  c.stop = Time::seconds(5);
  spec.add_cbr(c);
  return spec;
}

struct Uids {
  std::vector<std::uint64_t> forward;  // data and CBR
  std::vector<std::uint64_t> reverse;  // ACKs
};

Uids bottleneck_uids(ScenarioSpec spec) {
  Scenario sc{std::move(spec)};
  test::UidRecorder fwd;
  test::UidRecorder rev;
  sc.topology().bottleneck().queue().set_observer(&fwd);
  sc.topology().reverse_bottleneck().queue().set_observer(&rev);
  sc.run();
  return {std::move(fwd.uids), std::move(rev.uids)};
}

TEST(PacketUid, SameAloneAfterAnotherScenarioAndOnSweepWorkers) {
  const Uids alone = bottleneck_uids(uid_spec(3));
  ASSERT_FALSE(alone.forward.empty());
  ASSERT_FALSE(alone.reverse.empty());

  bottleneck_uids(uid_spec(2));  // another scenario mints packets first
  const Uids after = bottleneck_uids(uid_spec(3));
  EXPECT_EQ(after.forward, alone.forward);
  EXPECT_EQ(after.reverse, alone.reverse);

  // Even jobs run the scenario under test, odd jobs the other one, all
  // concurrently on four workers. Each job writes only its own slot.
  constexpr std::size_t kJobs = 8;
  std::vector<Uids> got(kJobs);
  std::vector<SweepJob> jobs;
  for (std::size_t j = 0; j < kJobs; ++j) {
    jobs.push_back({"job=" + std::to_string(j), [j, &got](const JobContext&) {
                      got[j] = bottleneck_uids(uid_spec(j % 2 == 0 ? 3 : 2));
                      return Record{};
                    }});
  }
  ResultSink sink{kJobs};
  SweepOptions opts;
  opts.threads = 4;
  run_sweep(jobs, sink, opts);
  for (std::size_t j = 0; j < kJobs; j += 2) {
    EXPECT_EQ(got[j].forward, alone.forward) << "job " << j;
    EXPECT_EQ(got[j].reverse, alone.reverse) << "job " << j;
  }
}

TEST(PacketUid, UniqueAcrossDataAcksAndCbr) {
  const Uids u = bottleneck_uids(uid_spec(3));
  std::vector<std::uint64_t> all = u.forward;
  all.insert(all.end(), u.reverse.begin(), u.reverse.end());

  // Every kind of packet crossed a watched queue.
  auto kind_seen = [&](net::PacketType type) {
    return std::any_of(all.begin(), all.end(), [type](std::uint64_t uid) {
      return ((uid >> net::kPacketUidCountBits) & 3u) ==
             static_cast<std::uint8_t>(type);
    });
  };
  EXPECT_TRUE(kind_seen(net::PacketType::kData));
  EXPECT_TRUE(kind_seen(net::PacketType::kAck));
  EXPECT_TRUE(kind_seen(net::PacketType::kCbr));

  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "two packets share a uid";
}

}  // namespace
}  // namespace rrtcp::harness
