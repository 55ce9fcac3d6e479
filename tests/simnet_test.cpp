// simnet: links, topology/routing, fabric cost arithmetic, platforms, trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <vector>

#include "simnet/fabric.hpp"
#include "simnet/fault.hpp"
#include "simnet/platform.hpp"
#include "simnet/topology.hpp"
#include "simnet/trace.hpp"
#include "util/rng.hpp"

namespace mrl::simnet {
namespace {

Topology two_node_topo(int channels = 1) {
  Topology t;
  const int a = t.add_endpoint("a", EndpointKind::kSocket);
  const int b = t.add_endpoint("b", EndpointKind::kSocket);
  t.add_link(a, b, LinkSpec{"wire", /*bw=*/10.0, /*lat=*/1.0, channels});
  t.finalize();
  return t;
}

TEST(Link, ChannelMath) {
  LinkSpec s{"x", 100.0, 0.1, 4};
  EXPECT_DOUBLE_EQ(s.channel_gbs(), 25.0);
}

TEST(LinkState, PicksEarliestLane) {
  LinkSpec spec{"x", 100.0, 0.1, 3};
  LinkState st(spec);
  st.set_lane_free_at(0, 5.0);
  st.set_lane_free_at(1, 2.0);
  st.set_lane_free_at(2, 9.0);
  EXPECT_EQ(st.earliest_lane(), 1);
  st.reset();
  EXPECT_EQ(st.earliest_lane(), 0);
}

TEST(Topology, RoutesAreMinHopAndDeterministic) {
  Topology t;
  const int a = t.add_endpoint("a", EndpointKind::kSocket);
  const int b = t.add_endpoint("b", EndpointKind::kSocket);
  const int c = t.add_endpoint("c", EndpointKind::kSocket);
  t.add_link(a, b, LinkSpec{"ab", 10, 0.5, 1});
  t.add_link(b, c, LinkSpec{"bc", 10, 0.5, 1});
  t.add_link(a, c, LinkSpec{"ac", 10, 2.0, 1});
  t.finalize();
  EXPECT_EQ(t.route(a, c).size(), 1u);  // direct edge wins on hops
  EXPECT_EQ(t.route(a, b).size(), 1u);
  EXPECT_DOUBLE_EQ(t.route_latency_us(a, c), 2.0);
  EXPECT_DOUBLE_EQ(t.route_latency_us(a, b), 0.5);
  EXPECT_EQ(t.route(a, a).size(), 0u);
}

TEST(Topology, DisconnectedGraphAborts) {
  Topology t;
  t.add_endpoint("a", EndpointKind::kSocket);
  t.add_endpoint("b", EndpointKind::kSocket);
  EXPECT_DEATH(t.finalize(), "disconnected");
}

TEST(Topology, EqualHopTiesGoThroughTheFirstAddedLink) {
  Topology t;
  for (int i = 0; i < 4; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    t.add_endpoint(name, EndpointKind::kSocket);
  }
  t.add_link(0, 2, LinkSpec{"02", 10, 0.5, 1});
  t.add_link(0, 1, LinkSpec{"01", 10, 0.5, 1});
  t.add_link(2, 3, LinkSpec{"23", 10, 0.5, 1});
  t.add_link(1, 3, LinkSpec{"13", 10, 0.5, 1});
  t.finalize();
  // Both 0->2->3 and 0->1->3 take two hops; endpoint 2's link came first.
  const Route r = t.route(0, 3);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].link, 0);
  EXPECT_EQ(t.link_endpoint(r[0].link, 1), 2);
  EXPECT_EQ(r[1].link, 2);
}

TEST(Topology, RouteQueriesRejectOutOfRangeEndpoints) {
  const Topology t = two_node_topo();
  EXPECT_DEATH((void)t.route(0, 2), "MRL_CHECK failed");
  EXPECT_DEATH((void)t.route_latency_us(0, 2), "MRL_CHECK failed");
  EXPECT_DEATH((void)t.route_latency_us(-1, 0), "MRL_CHECK failed");
  EXPECT_DEATH((void)t.route_channel_gbs(2, 0), "MRL_CHECK failed");
  EXPECT_DEATH((void)t.route_channel_gbs(0, -1), "MRL_CHECK failed");
}

TEST(Topology, MultiNodeIdsArePerNodeBlocksWithSwitchLast) {
  EXPECT_EQ(Platform::perlmutter_cpu(2).topology().describe(),
            "endpoints:\n"
            "  [0] n0.milan0 (socket)\n"
            "  [1] n0.milan1 (socket)\n"
            "  [2] n0.nic (nic)\n"
            "  [3] n1.milan0 (socket)\n"
            "  [4] n1.milan1 (socket)\n"
            "  [5] n1.nic (nic)\n"
            "  [6] switch (switch)\n"
            "links:\n"
            "  n0.milan0 <-> n0.milan1  IF CPU-CPU  128.00 GB/s/dir, 4 ch, "
            "250 ns hop\n"
            "  n0.milan0 <-> n0.nic  PCIe4.0  25.00 GB/s/dir, 1 ch, "
            "350 ns hop\n"
            "  n1.milan0 <-> n1.milan1  IF CPU-CPU  128.00 GB/s/dir, 4 ch, "
            "250 ns hop\n"
            "  n1.milan0 <-> n1.nic  PCIe4.0  25.00 GB/s/dir, 1 ch, "
            "350 ns hop\n"
            "  n0.nic <-> switch  Slingshot  25.00 GB/s/dir, 1 ch, "
            "450 ns hop\n"
            "  n1.nic <-> switch  Slingshot  25.00 GB/s/dir, 1 ch, "
            "450 ns hop\n");
}

/// Reference router for the oracle tests: breadth-first search over the
/// whole machine, not just one node template, visiting each endpoint's links
/// in id order and keeping the first parent found. Returns the hops of every
/// route out of `src`, indexed by destination.
std::vector<std::vector<DirectedLink>> oracle_routes_from(const Topology& t,
                                                          int src) {
  const int n = t.num_endpoints();
  std::vector<std::vector<std::pair<int, DirectedLink>>> adj(
      static_cast<std::size_t>(n));
  for (int l = 0; l < t.num_links(); ++l) {
    const int a = t.link_endpoint(l, 0);
    const int b = t.link_endpoint(l, 1);
    adj[a].emplace_back(b, DirectedLink{l, 0});
    adj[b].emplace_back(a, DirectedLink{l, 1});
  }
  std::vector<int> parent(n, -1);
  std::vector<DirectedLink> parent_link(n);
  std::vector<bool> seen(n, false);
  std::deque<int> q{src};
  seen[src] = true;
  while (!q.empty()) {
    const int u = q.front();
    q.pop_front();
    for (const auto& [v, dl] : adj[u]) {
      if (seen[v]) continue;
      seen[v] = true;
      parent[v] = u;
      parent_link[v] = dl;
      q.push_back(v);
    }
  }
  std::vector<std::vector<DirectedLink>> routes(static_cast<std::size_t>(n));
  for (int dst = 0; dst < n; ++dst) {
    for (int v = dst; v != src; v = parent[v]) {
      routes[dst].push_back(parent_link[v]);
    }
    std::reverse(routes[dst].begin(), routes[dst].end());
  }
  return routes;
}

/// Every ordered endpoint pair: same hops as the oracle, latency summed in
/// hop order to the same bits, same channel bandwidth.
void expect_routes_match_oracle(const Platform& p) {
  SCOPED_TRACE(p.name());
  const Topology& t = p.topology();
  for (int src = 0; src < t.num_endpoints(); ++src) {
    const auto want = oracle_routes_from(t, src);
    for (int dst = 0; dst < t.num_endpoints(); ++dst) {
      const Route got = t.route(src, dst);
      const std::vector<DirectedLink>& hops = want[dst];
      ASSERT_EQ(got.size(), hops.size()) << src << " -> " << dst;
      double lat = 0.0;
      double chan = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < hops.size(); ++i) {
        EXPECT_EQ(got[i].link, hops[i].link) << src << " -> " << dst;
        EXPECT_EQ(got[i].dir, hops[i].dir) << src << " -> " << dst;
        lat += t.link(hops[i].link).latency_us;
        chan = std::min(chan, t.link(hops[i].link).channel_gbs());
      }
      EXPECT_EQ(t.route_latency_us(src, dst), lat) << src << " -> " << dst;
      EXPECT_EQ(t.route_channel_gbs(src, dst), chan) << src << " -> " << dst;
    }
  }
}

TEST(TopologyOracle, MultiNodeCpuRoutesMatchAllPairsBfs) {
  for (const int nodes : {1, 2, 3, 17}) {
    expect_routes_match_oracle(Platform::perlmutter_cpu(nodes));
    expect_routes_match_oracle(Platform::frontier_cpu(nodes));
    expect_routes_match_oracle(Platform::summit_cpu(nodes));
  }
}

TEST(TopologyOracle, GpuRoutesMatchAllPairsBfs) {
  expect_routes_match_oracle(Platform::perlmutter_gpu());
  expect_routes_match_oracle(Platform::summit_gpu());
  expect_routes_match_oracle(Platform::frontier_gpu());
}

TEST(Topology, BytesGrowLinearlyWithNodes) {
  // Deterministic guard against a per-pair route table coming back: that
  // would be ~4x from 800 to 1600 nodes and tens of GB at 8000.
  const std::size_t b800 = Platform::perlmutter_cpu(800).topology().bytes();
  const std::size_t b1600 = Platform::perlmutter_cpu(1600).topology().bytes();
  EXPECT_GT(b800, 0u);
  EXPECT_LE(static_cast<double>(b1600), 2.2 * static_cast<double>(b800));
  EXPECT_LT(Platform::perlmutter_cpu(8000).topology().bytes(),
            std::size_t{4} << 20);
}

TEST(Fabric, SingleTransferCost) {
  const Topology t = two_node_topo();
  Fabric f(&t, RouteMode::kCutThrough, /*local_bw=*/20.0, /*local_lat=*/0.1);
  TransferParams p;
  p.src_ep = 0;
  p.dst_ep = 1;
  p.bytes = 10000;  // at 10 GB/s: 1 us
  p.start_us = 5.0;
  p.sw_latency_us = 2.0;
  p.inj_gap_us = 0.05;
  const TransferResult r = f.transfer(p);
  // arrival = start + hop latency + serialization + software latency.
  EXPECT_DOUBLE_EQ(r.arrival_us, 5.0 + 1.0 + 1.0 + 2.0);
  EXPECT_DOUBLE_EQ(r.inject_free_us, 5.05);
}

TEST(Fabric, LocalTransferUsesLocalParams) {
  const Topology t = two_node_topo();
  Fabric f(&t, RouteMode::kCutThrough, 20.0, 0.1);
  TransferParams p;
  p.src_ep = 0;
  p.dst_ep = 0;
  p.bytes = 20000;  // at 20 GB/s: 1 us
  p.start_us = 0;
  p.sw_latency_us = 0.5;
  const TransferResult r = f.transfer(p);
  EXPECT_DOUBLE_EQ(r.arrival_us, 0.5 + 0.1 + 1.0);
}

TEST(Fabric, ContentionSerializesOnOneLane) {
  const Topology t = two_node_topo(/*channels=*/1);
  Fabric f(&t, RouteMode::kCutThrough, 20.0, 0.1);
  TransferParams p;
  p.src_ep = 0;
  p.dst_ep = 1;
  p.bytes = 10000;  // 1 us serialization
  p.start_us = 0.0;
  const TransferResult r1 = f.transfer(p);
  const TransferResult r2 = f.transfer(p);  // must queue behind r1
  EXPECT_DOUBLE_EQ(r1.arrival_us, 0.0 + 1.0 + 1.0);
  EXPECT_DOUBLE_EQ(r2.arrival_us, 1.0 + 1.0 + 1.0);
}

TEST(Fabric, ChannelsAllowConcurrentStreams) {
  const Topology t = two_node_topo(/*channels=*/2);
  Fabric f(&t, RouteMode::kCutThrough, 20.0, 0.1);
  TransferParams p;
  p.src_ep = 0;
  p.dst_ep = 1;
  p.bytes = 10000;  // one lane = 5 GB/s -> 2 us serialization
  p.start_us = 0.0;
  const TransferResult r1 = f.transfer(p);
  const TransferResult r2 = f.transfer(p);  // second lane: no queueing
  EXPECT_DOUBLE_EQ(r1.arrival_us, r2.arrival_us);
  const TransferResult r3 = f.transfer(p);  // lanes busy: queues
  EXPECT_GT(r3.arrival_us, r1.arrival_us);
}

TEST(Fabric, StoreForwardSlowerThanCutThroughOnMultiHop) {
  Topology t;
  const int a = t.add_endpoint("a", EndpointKind::kSocket);
  const int b = t.add_endpoint("b", EndpointKind::kSwitch);
  const int c = t.add_endpoint("c", EndpointKind::kSocket);
  t.add_link(a, b, LinkSpec{"ab", 10, 0.5, 1});
  t.add_link(b, c, LinkSpec{"bc", 10, 0.5, 1});
  t.finalize();
  TransferParams p;
  p.src_ep = a;
  p.dst_ep = c;
  p.bytes = 100000;  // 10 us per hop at 10 GB/s
  Fabric ct(&t, RouteMode::kCutThrough, 20, 0.1);
  Fabric sf(&t, RouteMode::kStoreForward, 20, 0.1);
  const double t_ct = ct.transfer(p).arrival_us;
  const double t_sf = sf.transfer(p).arrival_us;
  EXPECT_DOUBLE_EQ(t_ct, 0.5 + 0.5 + 10.0);
  EXPECT_DOUBLE_EQ(t_sf, 0.5 + 10.0 + 0.5 + 10.0);
}

TEST(Fabric, PerStreamCapApplies)
{
  const Topology t = two_node_topo();
  Fabric f(&t, RouteMode::kCutThrough, 20.0, 0.1);
  TransferParams p;
  p.src_ep = 0;
  p.dst_ep = 1;
  p.bytes = 10000;
  p.per_stream_gbs = 5.0;  // cap below the 10 GB/s link
  const TransferResult r = f.transfer(p);
  EXPECT_DOUBLE_EQ(r.arrival_us, 1.0 + 2.0);
}

TEST(Fabric, ResetClearsContention) {
  const Topology t = two_node_topo();
  Fabric f(&t, RouteMode::kCutThrough, 20.0, 0.1);
  TransferParams p;
  p.src_ep = 0;
  p.dst_ep = 1;
  p.bytes = 10000;
  (void)f.transfer(p);
  f.reset();
  EXPECT_EQ(f.total_msgs(), 0u);
  const TransferResult r = f.transfer(p);
  EXPECT_DOUBLE_EQ(r.arrival_us, 2.0);
}

TEST(Fabric, RouteIsRebuiltWheneverTheEndpointPairChanges) {
  // transfer() reuses the previous transfer's route while the endpoint pair
  // repeats. Runs of repeated pairs, pair changes (including a same-source
  // one, a reversed one and a local transfer in between) and a reset() in
  // the middle must still charge exactly the hops Topology::route gives.
  const Platform pf = Platform::perlmutter_cpu(2);
  const Topology& t = pf.topology();
  Fabric f(&t, RouteMode::kCutThrough, 20.0, 0.1);
  const int e = t.num_endpoints();
  std::vector<std::uint64_t> want(static_cast<std::size_t>(t.num_links()) * 2);
  Xoshiro256 rng(3);
  TransferParams p;
  p.bytes = 64;
  for (int i = 0; i < 400; ++i) {
    if (i == 200) {
      f.reset();
      std::fill(want.begin(), want.end(), 0);
    }
    if (rng.uniform(3) != 0) {
      const auto v = static_cast<int>(rng.uniform(4));
      if (v == 0) p.src_ep = static_cast<int>(rng.uniform(e));
      if (v == 1) p.dst_ep = static_cast<int>(rng.uniform(e));
      if (v == 2) std::swap(p.src_ep, p.dst_ep);
      if (v == 3) p.dst_ep = p.src_ep;
    }
    p.start_us = i;
    (void)f.transfer(p);
    if (p.src_ep == p.dst_ep) continue;
    for (const DirectedLink& dl : t.route(p.src_ep, p.dst_ep)) {
      ++want[static_cast<std::size_t>(dl.id())];
    }
  }
  for (int l = 0; l < t.num_links(); ++l) {
    for (int dir = 0; dir < 2; ++dir) {
      EXPECT_EQ(f.link_msgs(l, dir), want[static_cast<std::size_t>(l) * 2 + dir])
          << "link " << l << " dir " << dir;
    }
  }
}

// --- platform registry invariants, parameterized over Table I machines ---

class PlatformTest : public ::testing::TestWithParam<int> {
 protected:
  Platform p_ = Platform::all()[static_cast<std::size_t>(GetParam())];
};

TEST_P(PlatformTest, TopologyIsFinalizedAndConnected) {
  EXPECT_TRUE(p_.topology().finalized());
  EXPECT_GE(p_.topology().num_endpoints(), 2);
  EXPECT_GE(p_.topology().num_links(), 1);
}

TEST_P(PlatformTest, RankMappingRespectsCapacity) {
  const int n = p_.max_ranks();
  for (int rank = 0; rank < n; ++rank) {
    const int ep = p_.endpoint_of_rank(rank, n);
    ASSERT_GE(ep, 0);
    ASSERT_LT(ep, p_.topology().num_endpoints());
    const EndpointKind k = p_.topology().endpoint(ep).kind;
    EXPECT_TRUE(k == EndpointKind::kSocket || k == EndpointKind::kGpu);
  }
}

TEST_P(PlatformTest, LogGPParametersArePositive) {
  for (Runtime r : {Runtime::kTwoSidedMpi, Runtime::kOneSidedMpi,
                    Runtime::kShmem}) {
    const LogGP& g = p_.params(r);
    EXPECT_GT(g.L_us, 0) << to_string(r);
    EXPECT_GT(g.o_us, 0) << to_string(r);
    EXPECT_GE(g.g_us, 0) << to_string(r);
    EXPECT_GE(g.atomic_L_us, 0) << to_string(r);
  }
}

TEST_P(PlatformTest, FabricConstructs) {
  auto f = p_.make_fabric();
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(&f->topology(), &p_.topology());
}

INSTANTIATE_TEST_SUITE_P(AllPlatforms, PlatformTest, ::testing::Range(0, 6),
                         [](const auto& p) {
                           return Platform::all()[static_cast<std::size_t>(
                                      p.param)]
                                      .name()
                                      .find("GPU") != std::string::npos
                                      ? "gpu" + std::to_string(p.param)
                                      : "cpu" + std::to_string(p.param);
                         });

TEST(PlatformCalibration, PerlmutterCpuPairBandwidthIs32) {
  const Platform p = Platform::perlmutter_cpu();
  // Rank 0 on socket 0, last rank on socket 1 (block distribution).
  EXPECT_DOUBLE_EQ(p.pair_peak_gbs(0, 127, 128), 128.0);
  const Topology& t = p.topology();
  EXPECT_DOUBLE_EQ(t.route_channel_gbs(0, 1), 32.0);
}

TEST(PlatformCalibration, SummitGpuDumbbellRouting) {
  const Platform p = Platform::summit_gpu();
  // Intra-island: 1 hop; cross-island: via both sockets (3 hops).
  const int g0 = p.endpoint_of_rank(0, 6);
  const int g1 = p.endpoint_of_rank(1, 6);
  const int g3 = p.endpoint_of_rank(3, 6);
  EXPECT_EQ(p.topology().route(g0, g1).size(), 1u);
  EXPECT_EQ(p.topology().route(g0, g3).size(), 3u);
  EXPECT_NEAR(p.hw_rtt_us(0, 1, 6), 0.5, 1e-9);
  EXPECT_NEAR(p.hw_rtt_us(0, 3, 6), 1.1, 1e-9);
}

TEST(PlatformCalibration, FrontierUltimateBoundIs36) {
  const Platform p = Platform::frontier_cpu();
  EXPECT_DOUBLE_EQ(p.topology().route_channel_gbs(0, 1), 36.0);
}

TEST(Trace, SummaryComputesMsgsPerSyncAndBandwidth) {
  Trace tr;
  tr.set_enabled(true);
  // Two epochs from rank 0: 3 msgs in epoch 0, 1 msg in epoch 1.
  tr.record({0, 1, 1000, 0.0, 2.0, OpKind::kSend, 0});
  tr.record({0, 1, 1000, 0.5, 2.5, OpKind::kSend, 0});
  tr.record({0, 1, 1000, 1.0, 3.0, OpKind::kSend, 0});
  tr.record({0, 1, 1000, 5.0, 10.0, OpKind::kSend, 1});
  const TraceSummary s = tr.summarize();
  EXPECT_EQ(s.num_msgs, 4u);
  EXPECT_EQ(s.num_epochs, 2u);
  EXPECT_DOUBLE_EQ(s.avg_msgs_per_sync, 2.0);
  EXPECT_DOUBLE_EQ(s.avg_msg_bytes, 1000.0);
  EXPECT_DOUBLE_EQ(s.span_us, 10.0);
  EXPECT_DOUBLE_EQ(s.sustained_gbs, 0.4);  // 4000 B / 10 us
  EXPECT_DOUBLE_EQ(s.avg_latency_us, (2.0 + 2.0 + 2.0 + 5.0) / 4.0);
}

TEST(Trace, KindFilteredSummary) {
  Trace tr;
  tr.set_enabled(true);
  tr.record({0, 1, 100, 0.0, 1.0, OpKind::kPut, 0});
  tr.record({0, 1, 8, 0.0, 1.0, OpKind::kSignal, 0});
  EXPECT_EQ(tr.summarize(OpKind::kPut).num_msgs, 1u);
  EXPECT_DOUBLE_EQ(tr.summarize(OpKind::kPut).avg_msg_bytes, 100.0);
  EXPECT_EQ(tr.summarize(OpKind::kAtomic).num_msgs, 0u);
}

TEST(Trace, DisabledTraceRecordsNothing) {
  Trace tr;
  tr.record({0, 1, 100, 0.0, 1.0, OpKind::kPut, 0});
  EXPECT_TRUE(tr.records().empty());
}

TEST(Trace, DisabledTraceStillSummarizes) {
  Trace tr;
  tr.record({0, 1, 100, 0.0, 1.0, OpKind::kPut, 0});
  tr.record({1, 0, 300, 0.5, 2.5, OpKind::kPut, 0});
  tr.record({0, 1, 8, 1.0, 1.5, OpKind::kSignal, 0});
  tr.record({0, 1, 200, 3.0, 4.0, OpKind::kPut, 1});
  EXPECT_TRUE(tr.records().empty());
  const TraceSummary put = tr.summarize(OpKind::kPut);
  EXPECT_EQ(put.num_msgs, 3u);
  EXPECT_EQ(put.num_epochs, 3u);  // (0,0), (1,0), (0,1)
  EXPECT_DOUBLE_EQ(put.total_bytes, 600.0);
  EXPECT_DOUBLE_EQ(put.min_msg_bytes, 100.0);
  EXPECT_DOUBLE_EQ(put.max_msg_bytes, 300.0);
  EXPECT_DOUBLE_EQ(put.span_us, 4.0);
  EXPECT_DOUBLE_EQ(put.avg_latency_us, (1.0 + 2.0 + 1.0) / 3.0);
  EXPECT_EQ(tr.summarize(OpKind::kSignal).num_msgs, 1u);
  EXPECT_EQ(tr.summarize(OpKind::kSend).num_msgs, 0u);
  EXPECT_EQ(tr.summarize().num_msgs, 4u);
  EXPECT_EQ(tr.summarize().num_epochs, 3u);
  tr.clear();
  EXPECT_EQ(tr.summarize().num_msgs, 0u);
  EXPECT_EQ(tr.summarize(OpKind::kPut).num_epochs, 0u);
}

TEST(Trace, RecordRejectsMissingSender) {
  Trace tr;
  EXPECT_DEATH(tr.record(MsgRecord{}), "src_rank >= 0");
}

TEST(Trace, RecordRejectsSenderEpochGoingBackwards) {
  Trace tr;
  tr.record({3, 0, 8, 0.0, 1.0, OpKind::kPut, 2});
  tr.record({3, 0, 8, 1.0, 2.0, OpKind::kPut, 2});  // same epoch: fine
  // Another kind from the same sender shares the all-kinds fold.
  EXPECT_DEATH(tr.record({3, 0, 8, 2.0, 3.0, OpKind::kAtomic, 1}),
               "epoch went backwards");
  // clear() starts every sender over.
  tr.clear();
  tr.record({3, 0, 8, 0.0, 1.0, OpKind::kPut, 0});
  EXPECT_EQ(tr.summarize().num_epochs, 1u);
}

TEST(Trace, RecordStoreSurvivesChunkBoundariesAndClear) {
  // The chunked store must behave exactly like the vector it replaced:
  // indexed reads, in-order iteration, deep copies, and clear()+refill — all
  // across the 64Ki-record chunk boundary.
  Trace tr;
  tr.set_enabled(true);
  const std::size_t n = RecordStore::kChunkSize + RecordStore::kChunkSize / 2;
  for (std::size_t i = 0; i < n; ++i) {
    tr.record({static_cast<std::int32_t>(i % 97), 1, i, 0.0,
               static_cast<double>(i), OpKind::kPut, i / 7});
  }
  const RecordStore& rs = tr.records();
  ASSERT_EQ(rs.size(), n);
  EXPECT_EQ(rs[0].bytes, 0u);
  EXPECT_EQ(rs[RecordStore::kChunkSize - 1].bytes, RecordStore::kChunkSize - 1);
  EXPECT_EQ(rs[RecordStore::kChunkSize].bytes, RecordStore::kChunkSize);
  EXPECT_EQ(rs[n - 1].bytes, n - 1);
  std::size_t seen = 0;
  for (const MsgRecord& r : rs) {
    ASSERT_EQ(r.bytes, seen);
    ++seen;
  }
  EXPECT_EQ(seen, n);
  // Copies are deep: mutating the original must not show through.
  RecordStore copy = rs;
  ASSERT_EQ(copy.size(), n);
  tr.record({5, 6, 7777, 0.0, 1.0, OpKind::kSend, n});
  EXPECT_EQ(copy.size(), n);
  EXPECT_EQ(copy[n - 1].bytes, n - 1);
  // clear() resets the logical size; refilled records land at index 0.
  tr.clear();
  EXPECT_TRUE(tr.records().empty());
  tr.record({2, 3, 42, 0.0, 1.0, OpKind::kAtomic, 0});
  ASSERT_EQ(tr.records().size(), 1u);
  EXPECT_EQ(tr.records()[0].bytes, 42u);
}

// --- fault injection ------------------------------------------------------

TEST(Fault, DefaultSpecIsBitIdenticalNoOp) {
  // A fabric carrying a default (empty) FaultSpec must reproduce the exact
  // arrival bits of a fabric built without one — this is the contract that
  // keeps every pre-fault CSV byte-identical.
  const Topology t = two_node_topo(/*channels=*/2);
  Fabric plain(&t, RouteMode::kCutThrough, 20.0, 0.1);
  Fabric faulted(&t, RouteMode::kCutThrough, 20.0, 0.1, FaultSpec{});
  Fabric sf_plain(&t, RouteMode::kStoreForward, 20.0, 0.1);
  Fabric sf_faulted(&t, RouteMode::kStoreForward, 20.0, 0.1, FaultSpec{});
  TransferParams p;
  p.src_ep = 0;
  p.dst_ep = 1;
  for (int i = 0; i < 16; ++i) {
    p.bytes = 64ull << i;
    p.start_us = 0.37 * i;
    const TransferResult a = plain.transfer(p);
    const TransferResult b = faulted.transfer(p);
    EXPECT_EQ(a.arrival_us, b.arrival_us) << i;  // bitwise, not NEAR
    EXPECT_EQ(b.drops, 0) << i;
    EXPECT_EQ(sf_plain.transfer(p).arrival_us,
              sf_faulted.transfer(p).arrival_us)
        << i;
  }
}

TEST(Fault, HopFaultsAreSeededAndReplayable) {
  FaultSpec spec;
  spec.seed = 1234;
  spec.latency_jitter_us = 2.0;
  spec.drop_prob = 0.3;
  FaultModel a(spec, /*num_dlinks=*/4);
  FaultModel b(spec, /*num_dlinks=*/4);
  std::vector<FaultModel::HopFault> seq;
  for (int i = 0; i < 32; ++i) {
    const auto fa = a.next_hop_fault(1, 10.0 * i);
    const auto fb = b.next_hop_fault(1, 10.0 * i);
    EXPECT_EQ(fa.extra_latency_us, fb.extra_latency_us) << i;
    EXPECT_EQ(fa.drops, fb.drops) << i;
    seq.push_back(fa);
  }
  // reset() rewinds the ordinals: the same sequence replays exactly.
  a.reset();
  for (int i = 0; i < 32; ++i) {
    const auto fa = a.next_hop_fault(1, 10.0 * i);
    EXPECT_EQ(fa.extra_latency_us, seq[static_cast<std::size_t>(i)]
                                       .extra_latency_us)
        << i;
    EXPECT_EQ(fa.drops, seq[static_cast<std::size_t>(i)].drops) << i;
  }
  // A different link id draws from an independent substream.
  FaultModel c(spec, 4);
  bool any_differ = false;
  for (int i = 0; i < 32; ++i) {
    if (c.next_hop_fault(2, 10.0 * i).extra_latency_us !=
        seq[static_cast<std::size_t>(i)].extra_latency_us) {
      any_differ = true;
    }
  }
  EXPECT_TRUE(any_differ);
}

TEST(Fault, FaultsOnlySlowTransfersDown) {
  const Topology t = two_node_topo();
  FaultSpec spec = FaultSpec::at_intensity(0.8, 77);
  ASSERT_TRUE(spec.enabled());
  Fabric pristine(&t, RouteMode::kCutThrough, 20.0, 0.1);
  Fabric degraded(&t, RouteMode::kCutThrough, 20.0, 0.1, spec);
  TransferParams p;
  p.src_ep = 0;
  p.dst_ep = 1;
  bool any_slower = false;
  for (int i = 0; i < 64; ++i) {
    p.bytes = 1024 + 997 * i;
    p.start_us = 3.1 * i;
    const double t0 = pristine.transfer(p).arrival_us;
    const double t1 = degraded.transfer(p).arrival_us;
    EXPECT_GE(t1, t0) << i;  // faults never speed a message up
    if (t1 > t0) any_slower = true;
  }
  EXPECT_TRUE(any_slower);
}

TEST(Fault, BackoffSumsExponentiallyWithCap) {
  FaultSpec spec;
  spec.drop_prob = 0.1;
  spec.backoff_base_us = 10.0;
  spec.backoff_cap_us = 35.0;
  const FaultModel m(spec, 2);
  EXPECT_DOUBLE_EQ(m.backoff_us(0), 0.0);
  EXPECT_DOUBLE_EQ(m.backoff_us(1), 10.0);
  EXPECT_DOUBLE_EQ(m.backoff_us(2), 10.0 + 20.0);
  EXPECT_DOUBLE_EQ(m.backoff_us(3), 10.0 + 20.0 + 35.0);  // capped
}

TEST(Fault, StragglerScaleIsStablePerRank) {
  FaultSpec spec;
  spec.straggler_prob = 0.5;
  spec.straggler_factor = 2.0;
  const FaultModel m(spec, 2);
  int stragglers = 0;
  for (int r = 0; r < 64; ++r) {
    const double s = m.straggler_scale(r);
    EXPECT_EQ(s, m.straggler_scale(r)) << r;  // stable across queries
    EXPECT_TRUE(s == 1.0 || s == 2.0) << r;
    if (s > 1.0) ++stragglers;
  }
  EXPECT_GT(stragglers, 8);   // ~half of 64 at prob 0.5
  EXPECT_LT(stragglers, 56);
}

}  // namespace
}  // namespace mrl::simnet
