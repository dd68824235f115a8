// FlatTable32 — the open-addressed table behind Node's route/agent lookup.

#include "net/flat_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"

namespace rrtcp::net {
namespace {

TEST(FlatTable, EmptyFindsNothing) {
  FlatTable32<int> t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.find(0), nullptr);
  EXPECT_EQ(t.find(12345), nullptr);
  EXPECT_FALSE(t.erase(7));
}

TEST(FlatTable, InsertFindEraseRoundTrip) {
  FlatTable32<int> t;
  t.insert_or_assign(3, 30);
  t.insert_or_assign(1, 10);
  t.insert_or_assign(2, 20);
  EXPECT_EQ(t.size(), 3u);
  ASSERT_NE(t.find(1), nullptr);
  EXPECT_EQ(*t.find(1), 10);
  EXPECT_EQ(*t.find(2), 20);
  EXPECT_EQ(*t.find(3), 30);
  EXPECT_EQ(t.find(4), nullptr);

  EXPECT_TRUE(t.erase(2));
  EXPECT_FALSE(t.erase(2));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.find(2), nullptr);
  EXPECT_EQ(*t.find(1), 10);
  EXPECT_EQ(*t.find(3), 30);
}

TEST(FlatTable, InsertOverwritesExistingKey) {
  FlatTable32<int> t;
  t.insert_or_assign(5, 1);
  t.insert_or_assign(5, 2);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(*t.find(5), 2);
}

TEST(FlatTable, GrowthRehashKeepsEveryEntry) {
  FlatTable32<std::uint32_t> t;
  for (std::uint32_t k = 0; k < 1000; ++k) t.insert_or_assign(k, k * 7);
  EXPECT_EQ(t.size(), 1000u);
  for (std::uint32_t k = 0; k < 1000; ++k) {
    ASSERT_NE(t.find(k), nullptr) << "lost key " << k;
    EXPECT_EQ(*t.find(k), k * 7);
  }
  EXPECT_EQ(t.find(1000), nullptr);
}

TEST(FlatTable, BackwardShiftEraseKeepsProbeChainsIntact) {
  // Dense consecutive ids (the NodeId pattern) force shared cache lines
  // and, past the load cap, genuine probe chains. Deleting every third key
  // must leave the rest findable — the property tombstone-free backward
  // shift has to preserve.
  FlatTable32<std::uint32_t> t;
  for (std::uint32_t k = 0; k < 300; ++k) t.insert_or_assign(k, k);
  for (std::uint32_t k = 0; k < 300; k += 3) EXPECT_TRUE(t.erase(k));
  EXPECT_EQ(t.size(), 200u);
  for (std::uint32_t k = 0; k < 300; ++k) {
    if (k % 3 == 0) {
      EXPECT_EQ(t.find(k), nullptr) << k;
    } else {
      ASSERT_NE(t.find(k), nullptr) << k;
      EXPECT_EQ(*t.find(k), k);
    }
  }
}

TEST(FlatTable, RandomizedAgainstReferenceMap) {
  // Deterministic LCG workload mixing inserts, overwrites, and erases,
  // cross-checked against std::map after every batch.
  FlatTable32<std::uint64_t> t;
  std::map<std::uint32_t, std::uint64_t> ref;
  std::uint64_t x = 0x243F6A8885A308D3ULL;
  auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(x >> 33);
  };
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 500; ++i) {
      const std::uint32_t key = next() % 257;  // force collisions + reuse
      if (next() % 4 == 0) {
        EXPECT_EQ(t.erase(key), ref.erase(key) > 0);
      } else {
        const std::uint64_t v = next();
        t.insert_or_assign(key, v);
        ref[key] = v;
      }
    }
    ASSERT_EQ(t.size(), ref.size());
    for (const auto& [k, v] : ref) {
      ASSERT_NE(t.find(k), nullptr) << "round " << round << " key " << k;
      EXPECT_EQ(*t.find(k), v);
    }
    for (std::uint32_t k = 0; k < 257; ++k) {
      if (ref.count(k) == 0) {
        EXPECT_EQ(t.find(k), nullptr);
      }
    }
  }
}

TEST(FlatTable, IterationOrderIsAFunctionOfHistory) {
  // Two tables built with the same insert/erase history must iterate
  // identically — the determinism contract replace_route_target leans on.
  auto build = [] {
    FlatTable32<std::uint32_t> t;
    for (std::uint32_t k = 0; k < 64; ++k) t.insert_or_assign(k * 5, k);
    for (std::uint32_t k = 0; k < 64; k += 2) t.erase(k * 5);
    t.insert_or_assign(1000, 99);
    return t;
  };
  FlatTable32<std::uint32_t> a = build();
  FlatTable32<std::uint32_t> b = build();
  std::vector<std::uint32_t> ka;
  std::vector<std::uint32_t> kb;
  a.for_each([&](std::uint32_t k, std::uint32_t&) { ka.push_back(k); });
  b.for_each([&](std::uint32_t k, std::uint32_t&) { kb.push_back(k); });
  EXPECT_EQ(ka, kb);
  EXPECT_EQ(ka.size(), 33u);
}

TEST(FlatTable, ForEachMutatesValuesInPlace) {
  FlatTable32<int> t;
  for (std::uint32_t k = 1; k <= 10; ++k) t.insert_or_assign(k, 1);
  t.for_each([](std::uint32_t, int& v) { v *= 2; });
  for (std::uint32_t k = 1; k <= 10; ++k) EXPECT_EQ(*t.find(k), 2);
}

TEST(FlatTable, ReservePreallocatesWithoutChangingContents) {
  FlatTable32<int> t;
  t.insert_or_assign(1, 1);
  t.reserve(500);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(*t.find(1), 1);
  for (std::uint32_t k = 2; k <= 300; ++k) t.insert_or_assign(k, 0);
  EXPECT_EQ(t.size(), 300u);
}

TEST(FlatTable, MaxValidKeyWorks) {
  // kInvalidNode (all ones) is the empty sentinel; all-ones-minus-one is
  // the largest legal key and must behave like any other.
  FlatTable32<int> t;
  const std::uint32_t big = 0xFFFFFFFEu;
  t.insert_or_assign(big, 42);
  ASSERT_NE(t.find(big), nullptr);
  EXPECT_EQ(*t.find(big), 42);
  EXPECT_TRUE(t.erase(big));
  EXPECT_EQ(t.find(big), nullptr);
}

// Node-level behavior on top of the table.

class CountingHandler final : public PacketHandler {
 public:
  void send(Packet p) override {
    ++sent;
    last = p;
  }
  int sent = 0;
  Packet last;
};

TEST(NodeRouting, RouteLookupPrefersSpecificOverDefault) {
  Node n{NodeId{0}};
  CountingHandler specific;
  CountingHandler fallback;
  n.add_route(NodeId{7}, &specific);
  n.set_default_route(&fallback);

  Packet p;
  p.dst = NodeId{7};
  n.receive(p);
  p.dst = NodeId{8};
  n.receive(p);

  EXPECT_EQ(specific.sent, 1);
  EXPECT_EQ(fallback.sent, 1);
  EXPECT_EQ(n.forwarded(), 2u);
}

TEST(NodeRouting, ReplaceRouteTargetRewritesAllMatchingEntries) {
  Node n{NodeId{0}};
  CountingHandler old_h;
  CountingHandler new_h;
  CountingHandler other;
  n.add_route(NodeId{1}, &old_h);
  n.add_route(NodeId{2}, &old_h);
  n.add_route(NodeId{3}, &other);
  n.set_default_route(&old_h);

  EXPECT_EQ(n.replace_route_target(&old_h, &new_h), 3);

  Packet p;
  for (std::uint32_t d : {1u, 2u, 3u, 9u}) {
    p.dst = NodeId{d};
    n.receive(p);
  }
  EXPECT_EQ(new_h.sent, 3);  // dst 1, 2, and the default route (9)
  EXPECT_EQ(other.sent, 1);
  EXPECT_EQ(old_h.sent, 0);
}

TEST(NodeRouting, ManyRoutesAllResolve) {
  // A gateway in a large graph topology: hundreds of per-destination
  // entries, each resolving to its own handler through table growth.
  Node n{NodeId{0}};
  std::vector<CountingHandler> handlers(400);
  for (std::uint32_t d = 1; d <= 400; ++d)
    n.add_route(NodeId{d}, &handlers[d - 1]);
  Packet p;
  for (std::uint32_t d = 1; d <= 400; ++d) {
    p.dst = NodeId{d};
    n.receive(p);
  }
  for (std::uint32_t d = 1; d <= 400; ++d)
    EXPECT_EQ(handlers[d - 1].sent, 1) << "dst " << d;
}

}  // namespace
}  // namespace rrtcp::net
