// Ablation of §3.3's notification redundancy: NetSeer sends THREE copies
// of each loss notification on a high-priority queue so the notification
// survives the very link whose losses it reports. This bench sweeps the
// copy count against link loss rates and measures how many inter-switch
// drop events actually reach the backend.
#include "backend/collector.h"
#include "core/netseer_app.h"
#include "core/nic_agent.h"
#include "fabric/network.h"
#include "experiment.h"
#include "packet/builder.h"
#include "store/store.h"
#include "table.h"
#include "telemetry/collect.h"

using namespace netseer;
using namespace netseer::bench;

namespace {

struct Outcome {
  std::uint64_t dropped;
  std::uint64_t recovered;
};

Outcome run(int copies, double loss_both_ways, std::uint64_t seed,
            telemetry::Registry* metrics) {
  fabric::Network net(seed);
  pdp::SwitchConfig sc;
  sc.num_ports = 4;
  sc.port_rate = util::BitRate::gbps(10);
  auto& s1 = net.add_switch("s1", sc);
  auto& s2 = net.add_switch("s2", sc);
  auto& h1 = net.add_host("h1", packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                          util::BitRate::gbps(10));
  auto& h2 = net.add_host("h2", packet::Ipv4Addr::from_octets(10, 0, 1, 1),
                          util::BitRate::gbps(10));
  net.connect_host(s1, 0, h1, util::microseconds(1));
  net.connect_host(s2, 0, h2, util::microseconds(1));
  auto [fwd, rev] = net.connect_switches(s1, 1, s2, 1, util::microseconds(1));
  net.compute_routes();

  core::ReportChannel channel(net.simulator(), util::Rng(3), util::milliseconds(1), 0.0);
  store::FlowEventStore store;
  backend::Collector collector(net.simulator(), 1000, channel, store);
  core::NetSeerConfig config;
  config.interswitch.notify_copies = copies;
  core::NetSeerApp app1(s1, config, &channel, 1000);
  core::NetSeerApp app2(s2, config, &channel, 1000);
  core::NetSeerNicAgent nic1, nic2;
  h1.set_nic_agent(&nic1);
  h2.set_nic_agent(&nic2);

  const packet::FlowKey flow{h1.addr(), h2.addr(), 6, 1000, 80};
  // Sync, then lossy window in BOTH directions (the notifications cross
  // the same sick link), then clean tail.
  for (int i = 0; i < 5; ++i) h1.send(packet::make_tcp(flow, 500));
  net.simulator().run();
  net::LinkFaultModel faults;
  faults.drop_prob = loss_both_ways;
  fwd->set_fault_model(faults);
  rev->set_fault_model(faults);
  for (int i = 0; i < 600; ++i) h1.send(packet::make_tcp(flow, 500));
  net.simulator().run();
  fwd->set_fault_model(net::LinkFaultModel{});
  rev->set_fault_model(net::LinkFaultModel{});
  for (int i = 0; i < 30; ++i) h1.send(packet::make_tcp(flow, 500));
  net.simulator().run();
  app1.flush();
  app2.flush();
  net.simulator().run();
  app1.flush();
  net.simulator().run();

  Outcome outcome{fwd->packets_dropped(), 0};
  for (const auto& stored : store.all()) {
    if (stored.event.type == core::EventType::kDrop &&
        stored.event.switch_id == s1.id()) {
      outcome.recovered += stored.event.counter;
    }
  }
  if (metrics != nullptr) {
    telemetry::collect(*metrics, app1);
    telemetry::collect(*metrics, app2);
    telemetry::collect(*metrics, collector);
    telemetry::collect(*metrics, store);
    telemetry::collect(*metrics, net.simulator(), 0.0);
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentOptions cli{"Ablation — loss-notification redundancy (x1/x2/x3 copies)"};
  cli.parse(argc, argv);
  print_title("Ablation — loss-notification redundancy (x1/x2/x3 copies)");
  print_paper("three redundant copies 'to protect their arrival at the upstream switch'");

  std::printf("\n  %-12s %8s %8s %8s\n", "link loss", "x1", "x2", "x3");
  for (const double loss : {0.01, 0.05, 0.10, 0.20, 0.30}) {
    std::printf("  %-11.0f%%", loss * 100);
    for (const int copies : {1, 2, 3}) {
      double recovered_sum = 0, dropped_sum = 0;
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto outcome = run(copies, loss, seed, cli.sink());
        recovered_sum += static_cast<double>(outcome.recovered);
        dropped_sum += static_cast<double>(outcome.dropped);
      }
      std::printf(" %7.1f%%", dropped_sum > 0 ? 100.0 * recovered_sum / dropped_sum : 100.0);
    }
    std::printf("\n");
  }
  print_note("cells: dropped packets whose flow was recovered at the upstream switch.");
  print_note("Notifications cross the lossy link too; redundancy keeps recovery high.");
  return cli.write_metrics();
}
