// The two model improvements the paper names as future work, implemented:
//
//   §5.4: "In future work, we will incorporate round-trip times for each
//   edge, which we expect to reduce errors further."  -> the RTT column of
//   the pooled (Eq. 5) model.
//
//   §8: "we plan to incorporate SNMP data from routers to characterize
//   network conditions."  -> SNMP-style WAN load sampling; the mean path
//   load during each transfer becomes an extra per-edge feature. Evaluated
//   on a chronically cross-loaded edge, where network conditions are the
//   dominant unknown.
#include <cstdio>
#include <map>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/global_model.hpp"
#include "features/dataset.hpp"
#include "ml/metrics.hpp"
#include "net/path.hpp"

namespace {

using namespace xfl;

/// Mean WAN load over [t0, t1] from SNMP-style samples.
double wan_window_mean(const std::vector<sim::WanSample>& samples, double t0,
                       double t1) {
  double sum = 0.0;
  std::size_t count = 0;
  for (const auto& sample : samples) {
    if (sample.time_s < t0) continue;
    if (sample.time_s > t1) break;
    sum += sample.load_Bps;
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace

int main() {
  xflbench::print_banner(
      "Extensions - the paper's stated future work (RTT + SNMP features)",
      "Sec. 5.4: RTT should reduce the pooled-model error; Sec. 8: router "
      "counters should expose network-condition unknowns");

  // ---- Part 1: RTT feature in the pooled model (§5.4) ----------------------
  const auto context = xflbench::production_context();
  const auto scenario = xflbench::production_scenario();
  const auto edges = xflbench::heavy_edges(context);

  std::map<logs::EdgeKey, double> edge_rtt;
  for (const auto& edge : edges) {
    const auto path = net::derive_path(scenario.sites,
                                       scenario.endpoints[edge.src].site,
                                       scenario.endpoints[edge.dst].site);
    edge_rtt[edge] = path.rtt_s;
  }

  const auto without_rtt = core::study_global_model(context, edges, {});
  core::GlobalModelConfig rtt_config;
  rtt_config.edge_rtt_s = &edge_rtt;
  const auto with_rtt = core::study_global_model(context, edges, rtt_config);

  TextTable rtt_table;
  rtt_table.set_title("Pooled model (Sec. 5.4) with and without the RTT feature:");
  rtt_table.set_header({"model", "LR MdAPE %", "XGB MdAPE %"});
  rtt_table.add_row({"without RTT", TextTable::num(without_rtt.lr_mdape, 1),
                     TextTable::num(without_rtt.xgb_mdape, 1)});
  rtt_table.add_row({"with RTT", TextTable::num(with_rtt.lr_mdape, 1),
                     TextTable::num(with_rtt.xgb_mdape, 1)});
  rtt_table.print(stdout);

  // ---- Part 2: SNMP-style WAN load feature (§8) -----------------------------
  // Re-simulate a production slice with WAN sampling on the chronically
  // cross-loaded CERN->FNAL path, then train the per-edge model with and
  // without the mean-path-load feature.
  std::printf("\nsimulating a monitored slice for the SNMP study...\n");
  sim::ProductionConfig monitored_config;
  monitored_config.duration_s = 9.0 * 86400.0;
  auto monitored_scenario = sim::make_production(monitored_config);
  endpoint::EndpointId cern = 0, fnal = 0;
  monitored_scenario.endpoints.find("CERN-dtn", cern);
  monitored_scenario.endpoints.find("FNAL-dtn", fnal);
  const auto cern_site = monitored_scenario.endpoints[cern].site;
  const auto fnal_site = monitored_scenario.endpoints[fnal].site;
  monitored_scenario.monitored_wan_paths.push_back({cern_site, fnal_site});
  monitored_scenario.wan_sample_interval_s = 30.0;
  // Make the cross traffic on the monitored path time-varying: a constant
  // load is indistinguishable from a lower link capacity and the models
  // absorb it into the intercept — router counters only pay off when
  // network conditions actually change between transfers.
  for (auto& background : monitored_scenario.backgrounds) {
    if (background.component != sim::Component::kWan) continue;
    if (background.wan_src != cern_site || background.wan_dst != fnal_site)
      continue;
    background.mean_on_s = 1200.0;
    background.mean_off_s = 1200.0;
    background.demand_lo_Bps = 0.15 * 1.175e9;
    background.demand_hi_Bps = 0.75 * 1.175e9;
  }
  const auto result = monitored_scenario.run();
  const auto& wan_series = result.wan_samples.at({cern_site, fnal_site});

  const auto monitored_context = core::analyze_log(result.log);
  const logs::EdgeKey edge{cern, fnal};
  features::DatasetOptions options;
  options.load_threshold = 0.5;
  const auto baseline = features::build_edge_dataset(
      monitored_context.log, monitored_context.contention, edge, options);

  features::Dataset augmented = baseline;
  augmented.feature_names.emplace_back("WAN_load");
  ml::Matrix x(baseline.rows(), baseline.cols() + 1);
  for (std::size_t r = 0; r < baseline.rows(); ++r) {
    for (std::size_t c = 0; c < baseline.cols(); ++c)
      x.at(r, c) = baseline.x.at(r, c);
    const auto& record = monitored_context.log[baseline.record_indices[r]];
    x.at(r, baseline.cols()) =
        to_mbps(wan_window_mean(wan_series, record.start_s, record.end_s));
  }
  augmented.x = std::move(x);

  auto evaluate = [](const features::Dataset& dataset) {
    const auto fit =
        core::fit_holdout(dataset, 4242, {}, /*with_linear=*/false);
    return ml::mdape(fit.actual, fit.xgb_predictions);
  };
  const double baseline_mdape = evaluate(baseline);
  const double augmented_mdape = evaluate(augmented);

  TextTable wan_table;
  wan_table.set_title("\nPer-edge XGB on the chronically loaded CERN->FNAL path:");
  wan_table.set_header({"model", "samples", "MdAPE %"});
  wan_table.add_row({"log features only", std::to_string(baseline.rows()),
                     TextTable::num(baseline_mdape, 2)});
  wan_table.add_row({"+ SNMP WAN load", std::to_string(augmented.rows()),
                     TextTable::num(augmented_mdape, 2)});
  wan_table.print(stdout);

  xflbench::print_comparison(
      "No paper table (stated future work). Expected direction per the "
      "paper's own hypotheses: the RTT feature should not hurt and "
      "typically trims the pooled-model error; the SNMP WAN-load feature "
      "should clearly reduce the error on paths whose dominant unknown is "
      "cross traffic, mirroring how the LMT features work for storage "
      "(Sec. 5.5.2).");
  return 0;
}
