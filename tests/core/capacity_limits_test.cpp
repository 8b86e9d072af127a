// Failure-injection tests of NetSeer's §4 capacity ceilings: when event
// rates exceed the hardware budgets, events are MISSED AND COUNTED —
// never reported wrongly, never crashing the pipeline.
#include <gtest/gtest.h>

#include "backend/collector.h"
#include "core/netseer_app.h"
#include "core/nic_agent.h"
#include "fabric/network.h"
#include "packet/builder.h"
#include "store/store.h"

namespace netseer::core {
namespace {

using packet::FlowKey;
using packet::Ipv4Addr;
using packet::Ipv4Prefix;

struct Rig {
  explicit Rig(NetSeerConfig config = {}, pdp::MmuConfig mmu = {})
      : net(7), channel(net.simulator(), util::Rng(3), util::milliseconds(1), 0.0) {
    pdp::SwitchConfig sc;
    sc.num_ports = 4;
    sc.port_rate = util::BitRate::gbps(10);
    sc.mmu = mmu;
    s1 = &net.add_switch("s1", sc);
    h1 = &net.add_host("h1", Ipv4Addr::from_octets(10, 0, 0, 1), util::BitRate::gbps(100));
    h2 = &net.add_host("h2", Ipv4Addr::from_octets(10, 0, 1, 1), util::BitRate::gbps(10));
    net.connect_host(*s1, 0, *h1, util::microseconds(1));
    net.connect_host(*s1, 1, *h2, util::microseconds(1));
    net.compute_routes();

    store = std::make_unique<store::FlowEventStore>();
    collector = std::make_unique<backend::Collector>(net.simulator(), 1000, channel, *store);
    app = std::make_unique<NetSeerApp>(*s1, config, &channel, 1000);
  }

  void finish() {
    net.simulator().run();
    app->flush();
    net.simulator().run();
  }

  fabric::Network net;
  ReportChannel channel;
  pdp::Switch* s1;
  net::Host* h1;
  net::Host* h2;
  std::unique_ptr<store::FlowEventStore> store;
  std::unique_ptr<backend::Collector> collector;
  std::unique_ptr<NetSeerApp> app;
};

TEST(CapacityLimits, MmuRedirectCeilingMissesAreCounted) {
  // Drop far more than the 40 Gb/s redirect budget in one burst: a 100G
  // sender into a 10G port with tiny queues.
  NetSeerConfig config;
  config.mmu_redirect_rate = util::BitRate::mbps(1);  // absurdly low ceiling
  pdp::MmuConfig mmu;
  mmu.queue_capacity_bytes = 2000;
  Rig rig(config, mmu);

  const FlowKey flow{rig.h1->addr(), rig.h2->addr(), 6, 1000, 80};
  for (int i = 0; i < 2000; ++i) rig.h1->send(packet::make_tcp(flow, 1400));
  rig.finish();

  const auto actual_drops = rig.s1->drops(pdp::DropReason::kCongestion);
  ASSERT_GT(actual_drops, 100u);
  EXPECT_GT(rig.app->missed_mmu_redirects(), 0u);

  // Reported + missed = actual: nothing lost silently, nothing invented.
  std::uint64_t reported = 0;
  for (const auto& stored : rig.store->all()) {
    if (stored.event.type == EventType::kDrop &&
        stored.event.drop_code == static_cast<std::uint8_t>(pdp::DropReason::kCongestion)) {
      reported += stored.event.counter;
    }
  }
  EXPECT_EQ(reported + rig.app->missed_mmu_redirects(), actual_drops);
}

TEST(CapacityLimits, InternalPortBudgetGatesIngressEvents) {
  NetSeerConfig config;
  config.internal_port_rate = util::BitRate::kbps(64);  // tiny internal port
  Rig rig(config);
  // Blackhole the destination: a flood of pipeline-drop event packets.
  ASSERT_TRUE(rig.s1->routes().remove(Ipv4Prefix{rig.h2->addr(), 32}));
  const FlowKey flow{rig.h1->addr(), rig.h2->addr(), 6, 1000, 80};
  for (int i = 0; i < 3000; ++i) rig.h1->send(packet::make_tcp(flow, 1400));
  rig.finish();

  EXPECT_GT(rig.app->missed_internal_port(), 0u);
  // The flow is still reported (the budget passes the first packets).
  backend::EventQuery query;
  query.flow = flow;
  EXPECT_FALSE(rig.store->query(query).empty());
}

TEST(CapacityLimits, EventStackOverflowCountedNotCrashed) {
  NetSeerConfig config;
  config.event_stack_capacity = 4;
  config.group_cache.entries = 0;  // degenerate: report every packet
  // Stall the batcher so the stack cannot drain.
  config.cebp.num_cebps = 1;
  config.cebp.recirc_latency = util::seconds(1);
  Rig rig(config);
  ASSERT_TRUE(rig.s1->routes().remove(Ipv4Prefix{rig.h2->addr(), 32}));
  const FlowKey flow{rig.h1->addr(), rig.h2->addr(), 6, 1000, 80};
  for (int i = 0; i < 500; ++i) rig.h1->send(packet::make_tcp(flow, 400));
  rig.net.simulator().run();
  EXPECT_GT(rig.app->stack().overflows(), 0u);
  EXPECT_LE(rig.app->stack().size(), 4u);
}

TEST(CapacityLimits, DefaultBudgetsAbsorbRealisticBursts) {
  // The paper's point: the ceilings cover ~99% of production situations.
  // A 10G-line-rate drop burst is comfortably under the 40G redirect cap.
  pdp::MmuConfig mmu;
  mmu.queue_capacity_bytes = 3000;
  Rig rig(NetSeerConfig{}, mmu);
  const FlowKey flow{rig.h1->addr(), rig.h2->addr(), 6, 1000, 80};
  for (int i = 0; i < 300; ++i) rig.h1->send(packet::make_tcp(flow, 1400));
  rig.finish();
  EXPECT_GT(rig.s1->drops(pdp::DropReason::kCongestion), 0u);
  EXPECT_EQ(rig.app->missed_mmu_redirects(), 0u);
  EXPECT_EQ(rig.app->missed_internal_port(), 0u);
  EXPECT_EQ(rig.app->stack().overflows(), 0u);
}

}  // namespace
}  // namespace netseer::core
