// Monitored operations: the §5.5/§8 story end to end.
//
// A site runs its transfers while monitoring (a) endpoint storage/CPU load
// LMT-style and (b) WAN path load SNMP-style. This example shows how an
// operator uses those series together with the library:
//   1. run a monitored scenario,
//   2. inspect what the monitors saw (utilisation summaries),
//   3. snapshot the live load at some instant and ask the predictor what a
//      new transfer would achieve right now — with an uncertainty band.
#include <cstdio>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/predictor.hpp"
#include "features/contention.hpp"
#include "sim/scenario.hpp"

int main() {
  using namespace xfl;

  // 1. A monitored Lustre-to-Lustre scenario (the paper's §5.5.2 setup).
  sim::LmtConfig config;
  config.test_transfers = 300;
  auto scenario = sim::make_nersc_lmt(config);
  // Also watch the LAN path between the two filesystems, SNMP-style.
  const auto src_site = scenario.endpoints[scenario.monitored_endpoints[0]].site;
  const auto dst_site = scenario.endpoints[scenario.monitored_endpoints[1]].site;
  scenario.monitored_wan_paths.push_back({src_site, dst_site});
  std::printf("simulating %zu transfers with LMT + SNMP monitoring...\n",
              scenario.workload.size());
  const auto result = scenario.run();
  std::printf("done: %zu transfers, %s moved, peak %u concurrent per endpoint\n",
              result.log.size(), format_bytes(result.stats.total_bytes).c_str(),
              result.stats.peak_active);

  // 2. What did the monitors see?
  TextTable monitor_table;
  monitor_table.set_title("\nmonitor summaries:");
  monitor_table.set_header(
      {"series", "samples", "mean", "p95", "unit"});
  for (const auto endpoint_id : scenario.monitored_endpoints) {
    const auto& samples = result.samples.at(endpoint_id);
    std::vector<double> write_load, cpu_load;
    for (const auto& sample : samples) {
      write_load.push_back(to_mbps(sample.disk_write_Bps));
      cpu_load.push_back(sample.cpu_load);
    }
    const auto& name = scenario.endpoints[endpoint_id].name;
    monitor_table.add_row({name + " OST write", std::to_string(samples.size()),
                           TextTable::num(mean(write_load), 1),
                           TextTable::num(percentile(write_load, 95.0), 1),
                           "MB/s"});
    monitor_table.add_row({name + " OSS cpu", std::to_string(samples.size()),
                           TextTable::num(mean(cpu_load), 3),
                           TextTable::num(percentile(cpu_load, 95.0), 3),
                           "frac"});
  }
  {
    const auto& wan = result.wan_samples.at({src_site, dst_site});
    std::vector<double> load;
    for (const auto& sample : wan) load.push_back(to_mbps(sample.load_Bps));
    monitor_table.add_row({"LAN path load", std::to_string(wan.size()),
                           TextTable::num(mean(load), 1),
                           TextTable::num(percentile(load, 95.0), 1), "MB/s"});
  }
  monitor_table.print(stdout);

  // 3. Live question: "if I submit 16 GB now, how long will it take?"
  core::TransferPredictor::Options options;
  options.min_edge_transfers = 150;
  core::TransferPredictor predictor(options);
  predictor.fit(result.log);

  const logs::EdgeKey edge{scenario.monitored_endpoints[0],
                           scenario.monitored_endpoints[1]};
  // Ask at three instants across the experiment.
  const double span = result.stats.makespan_s;
  std::printf("\nlive predictions for a 16 GB transfer on the test edge:\n");
  for (const double at : {0.1 * span, 0.5 * span, 0.9 * span}) {
    const auto load = features::snapshot_load(result.log, edge, at);
    core::PlannedTransfer planned;
    planned.src = edge.src;
    planned.dst = edge.dst;
    planned.bytes = 16.0 * kGB;
    planned.files = 64;
    planned.concurrency = 4;
    planned.parallelism = 2;
    const auto interval = predictor.predict_rate_interval(planned, load);
    std::printf(
        "  t=%7.0fs  active competitors: %zu  ->  %.0f MB/s "
        "[%.0f .. %.0f]  (ETA %.0f s, worst case %.0f s)\n",
        at, features::active_transfers_at(result.log, edge.src, at),
        interval.expected_mbps, interval.low_mbps, interval.high_mbps,
        planned.bytes / mbps(interval.expected_mbps),
        planned.bytes / mbps(interval.low_mbps));
  }
  std::printf(
      "\nSchedulers plan against the lower band; monitoring pages operators "
      "when observed load leaves the band the prediction assumed.\n");
  return 0;
}
