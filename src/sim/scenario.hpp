// Preset experiment scenarios. Each scenario bundles a site catalogue,
// endpoint catalogue, simulator configuration, pre-generated workload,
// background-load processes, and metadata the bench harnesses need (the
// designated heavy edges, monitored endpoints, test-transfer id ranges).
//
// Three presets mirror the paper's three experimental settings:
//   * esnet_testbed   — §3.1 / Table 1 / Fig. 3: four identical DTNs.
//   * production      — §4-§5: a Globus-like mix of facilities, servers,
//                       and personal endpoints with 30 heavy edges.
//   * nersc_lmt       — §5.5.2: two Lustre-backed endpoints at one site
//                       with full storage-load monitoring.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "endpoint/endpoint.hpp"
#include "logs/record.hpp"
#include "net/site.hpp"
#include "sim/background.hpp"
#include "sim/simulator.hpp"
#include "sim/transfer.hpp"
#include "sim/workload.hpp"

namespace xfl::sim {

/// A fully specified, runnable experiment.
struct Scenario {
  net::SiteCatalog sites;
  endpoint::EndpointCatalog endpoints;
  SimConfig sim_config;
  std::vector<TransferRequest> workload;
  std::vector<BackgroundSpec> backgrounds;
  /// The designated heavily used edges (the paper's "30 edges").
  std::vector<logs::EdgeKey> heavy_edges;
  /// Endpoints to sample and the sampling interval (0 entries = none).
  std::vector<endpoint::EndpointId> monitored_endpoints;
  double sample_interval_s = 0.0;
  /// Directed WAN site pairs to sample SNMP-style (§8 extension).
  std::vector<std::pair<net::SiteId, net::SiteId>> monitored_wan_paths;
  double wan_sample_interval_s = 60.0;
  /// Explicit WAN/LAN path overrides applied before running.
  struct PathOverride {
    net::SiteId src = 0;
    net::SiteId dst = 0;
    net::WanPath path;
  };
  std::vector<PathOverride> lan_paths;

  /// Construct the simulator, submit the workload and backgrounds, enable
  /// sampling, and run to completion.
  SimResult run() const;
};

/// Knobs for the ESnet testbed scenario (§3.1, Fig. 3).
struct EsnetConfig {
  std::uint64_t seed = 20170626;
  /// Transfers generated across the testbed edges to populate the
  /// rate-vs-external-load scatter (Fig. 3). 0 disables the workload
  /// (Table 1 probes want an idle system).
  std::size_t transfers = 4000;
  double duration_s = 6.0 * 86400.0;
};

/// Build the four-DTN ESnet testbed.
Scenario make_esnet_testbed(const EsnetConfig& config = {});

/// Knobs for the production-log scenario (§4-§5).
struct ProductionConfig {
  std::uint64_t seed = 20170630;
  double duration_s = 18.0 * 86400.0;
  double session_arrivals_per_s = 0.019;  ///< ~30k sessions / ~59k transfers.
  double session_mean_transfers = 2.0;
  bool enable_background = true;
  /// Extra low-usage edges beyond the heavy 30 (for Table 3/4 statistics
  /// and ROmax/RImax estimation).
  std::size_t tail_edges = 220;
};

/// Build the Globus-production-like scenario with 30 heavy edges.
Scenario make_production(const ProductionConfig& config = {});

/// Knobs for the NERSC/Lustre LMT scenario (§5.5.2).
struct LmtConfig {
  std::uint64_t seed = 20170701;
  std::size_t test_transfers = 666;   ///< Paper: 666 controlled transfers.
  double test_interarrival_s = 240.0;
  double sample_interval_s = 5.0;       ///< LMT samples every 5 s.
};

/// First id of the §5.5.2 controlled test transfers; load transfers get ids
/// starting at kLmtLoadFirstId.
inline constexpr std::uint64_t kLmtTestFirstId = 1;
inline constexpr std::uint64_t kLmtLoadFirstId = 1'000'000;

/// Build the monitored Lustre-to-Lustre scenario.
Scenario make_nersc_lmt(const LmtConfig& config = {});

}  // namespace xfl::sim
