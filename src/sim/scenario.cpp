#include "sim/scenario.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/path.hpp"
#include "storage/disk.hpp"

namespace xfl::sim {

SimResult Scenario::run() const {
  Simulator simulator(sites, endpoints, sim_config);
  for (const auto& override : lan_paths)
    simulator.set_wan_path(override.src, override.dst, override.path);
  for (const auto& bg : backgrounds) simulator.add_background(bg);
  if (sample_interval_s > 0.0)
    for (auto id : monitored_endpoints)
      simulator.enable_sampling(id, sample_interval_s);
  for (const auto& [src_site, dst_site] : monitored_wan_paths)
    simulator.enable_wan_sampling(src_site, dst_site, wan_sample_interval_s);
  for (const auto& req : workload) simulator.submit(req);
  return simulator.run();
}

// ---------------------------------------------------------------------------
// ESnet testbed (§3.1)
// ---------------------------------------------------------------------------

Scenario make_esnet_testbed(const EsnetConfig& config) {
  Scenario scenario;
  scenario.sim_config.seed = config.seed;

  // The testbed comprises "identical hardware deployed at three DOE labs
  // ... and at CERN", each a powerful DTN with high-speed storage and a
  // 10 Gb/s link.
  for (const char* name : net::kEsnetSites) {
    net::SiteId site_id = 0;
    net::SiteCatalog known = net::SiteCatalog::with_known_facilities();
    known.find(name, site_id);
    scenario.sites.add(known[site_id]);
  }
  for (std::uint32_t s = 0; s < 4; ++s) {
    auto spec = endpoint::make_dtn(std::string(net::kEsnetSites[s]) + "-dtn", s);
    scenario.endpoints.add(spec);
  }

  if (config.transfers == 0) return scenario;

  // Workload across all 12 directed edges so that transfers compete at
  // shared endpoints, sweeping the relative-external-load axis of Fig. 3.
  Rng rng(config.seed);
  std::vector<EdgeProfile> profiles;
  for (endpoint::EndpointId src = 0; src < 4; ++src) {
    for (endpoint::EndpointId dst = 0; dst < 4; ++dst) {
      if (src == dst) continue;
      EdgeProfile profile;
      profile.src = src;
      profile.dst = dst;
      profile.weight = 1.0;
      profile.log_mean_bytes = std::log(5.0e10);  // ~50 GB median
      profile.log_sigma_bytes = 1.0;
      profile.log_mean_file = std::log(2.0e9);    // ~2 GB files
      profile.log_sigma_file = 0.8;
      profile.default_concurrency = 4;
      profile.default_parallelism = 4;
      profiles.push_back(profile);
      scenario.heavy_edges.push_back({src, dst});
    }
  }
  WorkloadConfig workload;
  workload.duration_s = config.duration_s;
  // Sessions of ~2 transfers; calibrate the arrival rate to the requested
  // transfer count.
  workload.session_mean_transfers = 2.0;
  workload.arrivals_per_s = static_cast<double>(config.transfers) /
                            workload.session_mean_transfers /
                            config.duration_s;
  workload.session_gap_s = 30.0;
  scenario.workload = generate_workload(profiles, workload, rng);
  return scenario;
}

// ---------------------------------------------------------------------------
// Production (§4-§5)
// ---------------------------------------------------------------------------

namespace {

/// Share of traffic on the 30 heavy edges vs the long tail.
constexpr double kHeavyShare = 0.82;

/// Endpoint roles in the production scenario.
struct ProductionSite {
  const char* name;
  double nic_gbps;
};

/// Synthetic non-facility sites (campus deployments). Coordinates spread
/// over North America and Europe so that edge lengths span the Table 3
/// percentiles and Fig. 6 shows an intra- vs intercontinental split.
struct SyntheticSite {
  const char* name;
  double lat, lon;
};

constexpr SyntheticSite kSyntheticSites[] = {
    {"UMich", 42.28, -83.74},   {"UWisc", 43.07, -89.40},
    {"GaTech", 33.78, -84.40},  {"UWash", 47.65, -122.31},
    {"Utah", 40.77, -111.89},   {"Princeton", 40.34, -74.66},
    {"Rice", 29.72, -95.40},    {"UFl", 29.64, -82.35},
    {"Toronto", 43.66, -79.40}, {"Vancouver", 49.26, -123.25},
    {"DESY", 53.58, 9.88},      {"RAL", 51.57, -1.32},
    {"CNAF", 44.49, 11.34},     {"IN2P3", 45.78, 4.87},
    {"SURFsara", 52.36, 4.95},  {"PSNC", 52.41, 16.92},
    {"KIT", 49.01, 8.40},       {"Edinburgh", 55.92, -3.17},
};

/// The 30 heavy directed edges, expressed as endpoint-name pairs. The mix
/// follows Table 4's 30-edge split: roughly half GCS=>GCS, ~30% GCS=>GCP,
/// ~20% GCP=>GCS. GCP endpoints are created at synthetic sites below.
struct HeavyEdgeSpec {
  const char* src;
  const char* dst;
  double size_scale;  ///< Multiplies the median transfer size (edge texture).
  double file_scale;  ///< Multiplies the median file size.
  std::uint32_t default_c;
  std::uint32_t default_p;
};

constexpr HeavyEdgeSpec kHeavyEdges[] = {
    // 15 GCS => GCS (50%). No endpoint appears on more than three edges:
    // hot-spotting every heavy edge onto one or two DTNs would make the
    // typical transfer run against several concurrent competitors, pushing
    // the bulk of the rate distribution far below the edge maximum (real
    // logs keep ~46% of transfers above half the maximum).
    {"JLAB-dtn", "NERSC-dtn", 1.0, 0.5, 4, 4},
    {"NERSC-dtn", "JLAB-dtn", 0.8, 0.6, 4, 4},
    {"TACC-dtn", "ALCF-dtn", 1.5, 1.0, 8, 4},
    {"ALCF-dtn", "NERSC-edison", 1.2, 1.2, 8, 2},
    {"SDSC-dtn", "TACC-dtn", 0.7, 0.8, 4, 4},
    {"ORNL-dtn", "ALCF-dtn", 1.6, 1.1, 4, 4},
    {"NERSC-dtn", "ORNL-dtn", 1.4, 1.0, 4, 4},
    {"BNL-dtn", "FNAL-dtn", 1.1, 0.4, 16, 1},
    {"FNAL-dtn", "BNL-dtn", 1.0, 0.4, 16, 1},
    {"CERN-dtn", "FNAL-dtn", 1.8, 0.9, 8, 8},
    {"CERN-dtn", "BNL-dtn", 1.7, 0.9, 8, 8},
    {"NCSA-dtn", "SDSC-dtn", 0.9, 0.7, 4, 4},
    {"UCAR-dtn", "NCSA-dtn", 0.6, 0.3, 4, 2},
    {"ANL-dtn", "LBL-dtn", 1.0, 0.8, 4, 4},
    {"PNNL-dtn", "Colorado-dtn", 0.8, 0.6, 4, 2},
    // 9 GCS => GCP (30%)
    {"LBL-dtn", "UMich-gcp", 0.3, 0.4, 2, 2},
    {"NCSA-dtn", "UWisc-gcp", 0.3, 0.5, 2, 2},
    {"ORNL-dtn", "GaTech-gcp", 0.4, 0.4, 2, 2},
    {"NERSC-edison", "UWash-gcp", 0.2, 0.3, 1, 2},
    {"TACC-dtn", "Rice-gcp", 0.3, 0.6, 2, 2},
    {"SDSC-dtn", "Utah-gcp", 0.2, 0.4, 2, 2},
    {"JLAB-dtn", "Princeton-gcp", 0.25, 0.3, 2, 2},
    {"CERN-dtn", "DESY-gcp", 0.35, 0.5, 2, 4},
    {"Colorado-dtn", "Toronto-gcp", 0.3, 0.4, 2, 2},
    // 6 GCP => GCS (20%)
    {"UMich-gcp", "ANL-dtn", 0.2, 0.3, 1, 2},
    {"UWisc-gcp", "PNNL-dtn", 0.2, 0.3, 1, 2},
    {"GaTech-gcp", "UCAR-dtn", 0.15, 0.25, 1, 2},
    {"Utah-gcp", "LBL-dtn", 0.2, 0.3, 1, 2},
    {"RAL-gcp", "ANL-dtn", 0.25, 0.3, 2, 2},
    {"Princeton-gcp", "Colorado-dtn", 0.2, 0.3, 1, 2},
};

}  // namespace

Scenario make_production(const ProductionConfig& config) {
  Scenario scenario;
  scenario.sim_config.seed = config.seed;
  Rng rng(config.seed);

  // --- Sites ---------------------------------------------------------------
  scenario.sites = net::SiteCatalog::with_known_facilities();
  for (const auto& synthetic : kSyntheticSites)
    scenario.sites.add({synthetic.name, {synthetic.lat, synthetic.lon}});

  auto site_of = [&scenario](const std::string& name) {
    net::SiteId id = 0;
    const bool found = scenario.sites.find(name, id);
    XFL_ENSURES(found);
    return id;
  };

  // --- Endpoints -----------------------------------------------------------
  // Facility DTNs (GCS class, 10 Gb/s).
  constexpr ProductionSite kFacilityDtns[] = {
      {"NERSC", 10.0}, {"ALCF", 10.0}, {"TACC", 10.0}, {"SDSC", 10.0},
      {"JLAB", 10.0},  {"UCAR", 10.0}, {"Colorado", 10.0}, {"ORNL", 10.0},
      {"BNL", 10.0},   {"FNAL", 10.0}, {"NCSA", 10.0}, {"CERN", 10.0},
      {"ANL", 10.0},   {"LBL", 10.0},  {"PNNL", 10.0},
  };
  for (const auto& facility : kFacilityDtns) {
    auto spec = endpoint::make_dtn(std::string(facility.name) + "-dtn",
                                   site_of(facility.name), facility.nic_gbps);
    // Give facilities slightly distinct hardware so endpoints differ (the
    // global model's ROmax/RImax features must carry signal).
    const double storage_scale = rng.uniform(0.7, 1.1);
    spec.disk.read_Bps *= storage_scale;
    spec.disk.write_Bps *= storage_scale;
    scenario.endpoints.add(spec);
  }
  // A second NERSC endpoint sharing the site (the paper distinguishes
  // NERSC-DTN from NERSC-Edison in Fig. 8).
  {
    auto spec = endpoint::make_dtn("NERSC-edison", site_of("NERSC"), 10.0);
    spec.disk = storage::midrange_server();
    scenario.endpoints.add(spec);
  }
  // Campus GCS servers at synthetic sites (midrange).
  for (const auto& synthetic : kSyntheticSites) {
    auto spec = endpoint::make_dtn(std::string(synthetic.name) + "-gcs",
                                   site_of(synthetic.name),
                                   rng.bernoulli(0.5) ? 10.0 : 1.0);
    spec.disk = storage::midrange_server();
    const double storage_scale = rng.uniform(0.6, 1.2);
    spec.disk.read_Bps *= storage_scale;
    spec.disk.write_Bps *= storage_scale;
    scenario.endpoints.add(spec);
  }
  // Personal (GCP) endpoints at synthetic sites.
  for (const auto& synthetic : kSyntheticSites) {
    auto spec = endpoint::make_personal(std::string(synthetic.name) + "-gcp",
                                        site_of(synthetic.name), 1.0);
    scenario.endpoints.add(spec);
  }

  auto endpoint_of = [&scenario](const std::string& name) {
    endpoint::EndpointId id = 0;
    const bool found = scenario.endpoints.find(name, id);
    XFL_ENSURES(found);
    return id;
  };

  // --- Heavy edges ---------------------------------------------------------
  std::vector<EdgeProfile> profiles;
  const std::size_t heavy_count = std::size(kHeavyEdges);
  // Rank weights ~ 1/r^0.3: skewed but flat enough that the 30th edge still
  // collects >600 transfers (it must survive the 0.5*Rmax filter with >=300).
  double heavy_weight_sum = 0.0;
  for (std::size_t r = 1; r <= heavy_count; ++r)
    heavy_weight_sum += std::pow(static_cast<double>(r), -0.3);
  for (std::size_t r = 0; r < heavy_count; ++r) {
    const auto& spec = kHeavyEdges[r];
    EdgeProfile profile;
    profile.src = endpoint_of(spec.src);
    profile.dst = endpoint_of(spec.dst);
    profile.weight = kHeavyShare *
                     std::pow(static_cast<double>(r + 1), -0.3) /
                     heavy_weight_sum;
    // Median ~12 GB x the edge's size_scale, heavy-tailed. The tempering
    // pass below may scale these down further to keep offered load inside
    // endpoint capacity.
    profile.log_mean_bytes = std::log(1.2e10 * spec.size_scale);
    profile.log_sigma_bytes = 1.4;
    profile.log_mean_file = std::log(2.5e8 * spec.file_scale);
    profile.log_sigma_file = 1.6;
    profile.default_concurrency = spec.default_c;
    profile.default_parallelism = spec.default_p;
    profiles.push_back(profile);
    scenario.heavy_edges.push_back({profile.src, profile.dst});
  }

  // --- Tail edges ----------------------------------------------------------
  // Random low-usage edges over the whole endpoint population (no GCP=>GCP:
  // Globus did not support those before 2016). They share endpoints with
  // heavy edges, providing competing load and ROmax/RImax coverage.
  const std::size_t endpoint_count = scenario.endpoints.size();
  const std::size_t first_tail = profiles.size();
  std::size_t added = 0;
  while (added < config.tail_edges) {
    const auto src = static_cast<endpoint::EndpointId>(
        rng.uniform_int(0, static_cast<std::int64_t>(endpoint_count) - 1));
    const auto dst = static_cast<endpoint::EndpointId>(
        rng.uniform_int(0, static_cast<std::int64_t>(endpoint_count) - 1));
    if (src == dst) continue;
    if (scenario.endpoints[src].type == endpoint::EndpointType::kPersonal &&
        scenario.endpoints[dst].type == endpoint::EndpointType::kPersonal)
      continue;
    // Collaboration is mostly regional: intercontinental edges exist but
    // are a small minority (Table 3's 90th-percentile edge length is only
    // ~3,000 km; Fig. 6 shows a thin intercontinental band).
    const double src_lon =
        scenario.sites[scenario.endpoints[src].site].location.lon_deg;
    const double dst_lon =
        scenario.sites[scenario.endpoints[dst].site].location.lon_deg;
    const bool intercontinental = (src_lon < -30.0) != (dst_lon < -30.0);
    if (intercontinental && !rng.bernoulli(0.1)) continue;
    EdgeProfile profile;
    profile.src = src;
    profile.dst = dst;
    profile.weight = rng.pareto(1.0, 1.3);  // Normalised to the tail share below.
    profile.log_mean_bytes = std::log(rng.lognormal(std::log(4.0e9), 1.2));
    profile.log_sigma_bytes = 1.6;
    profile.log_mean_file = std::log(rng.lognormal(std::log(1.5e8), 1.0));
    profile.log_sigma_file = 1.4;
    profile.default_concurrency = rng.bernoulli(0.5) ? 2 : 4;
    profile.default_parallelism = rng.bernoulli(0.5) ? 2 : 4;
    profiles.push_back(profile);
    ++added;
  }
  // Normalise the tail so the heavy/tail traffic split is exact rather
  // than hostage to one lucky Pareto draw.
  double tail_weight_sum = 0.0;
  for (std::size_t p = first_tail; p < profiles.size(); ++p)
    tail_weight_sum += profiles[p].weight;
  if (tail_weight_sum > 0.0)
    for (std::size_t p = first_tail; p < profiles.size(); ++p)
      profiles[p].weight *= (1.0 - kHeavyShare) / tail_weight_sum;

  // --- Background (non-Globus) load -----------------------------------------
  if (config.enable_background) {
    for (const auto& facility : kFacilityDtns) {
      const auto id = endpoint_of(std::string(facility.name) + "-dtn");
      const auto& spec = scenario.endpoints[id];
      // Mostly-on, moderately variable non-Globus load: real DTNs never
      // sit at hardware idle, so even the best observed Globus transfer
      // runs against some competition (keeps Rmax(E) ~2x the typical rate
      // rather than ~5x, matching the log study's 46.5% retention at
      // 0.5*Rmax).
      BackgroundSpec bg;
      bg.endpoint = id;
      bg.mean_on_s = 3000.0;
      bg.mean_off_s = 800.0;
      bg.component = Component::kDiskRead;
      bg.demand_lo_Bps = 0.15 * spec.disk.read_Bps;
      bg.demand_hi_Bps = 0.45 * spec.disk.read_Bps;
      scenario.backgrounds.push_back(bg);
      bg.component = Component::kDiskWrite;
      bg.demand_lo_Bps = 0.15 * spec.disk.write_Bps;
      bg.demand_hi_Bps = 0.45 * spec.disk.write_Bps;
      scenario.backgrounds.push_back(bg);
      bg.component = Component::kNicIn;
      bg.demand_lo_Bps = 0.10 * spec.nic_in_Bps;
      bg.demand_hi_Bps = 0.30 * spec.nic_in_Bps;
      scenario.backgrounds.push_back(bg);
      bg.component = Component::kNicOut;
      bg.demand_lo_Bps = 0.10 * spec.nic_out_Bps;
      bg.demand_hi_Bps = 0.30 * spec.nic_out_Bps;
      scenario.backgrounds.push_back(bg);
    }
  }

  // Chronic WAN cross-traffic on a subset of paths (every 4th heavy edge's
  // site pair). These are the paper's "32 edges well below the Eq. 1
  // bound": a perfSONAR-style probe of the idle path measures the full
  // capacity, but production transfers always compete with persistent
  // non-Globus traffic the logs cannot see.
  if (config.enable_background) {
    // CERN->FNAL is the clean demonstration: both of its endpoints have
    // other fast heavy edges (CERN->BNL, BNL->FNAL), so their historical
    // DR/DW estimates stay high while this path's transfers run slow -
    // the probe-vs-history mismatch that puts an edge "below" Eq. 1.
    for (const std::size_t r : {std::size_t{0}, std::size_t{4},
                                std::size_t{9}, std::size_t{14}}) {
      endpoint::EndpointId src_ep = endpoint_of(kHeavyEdges[r].src);
      endpoint::EndpointId dst_ep = endpoint_of(kHeavyEdges[r].dst);
      BackgroundSpec bg;
      bg.component = Component::kWan;
      bg.wan_src = scenario.endpoints[src_ep].site;
      bg.wan_dst = scenario.endpoints[dst_ep].site;
      bg.demand_lo_Bps = 0.50 * 1.175e9;
      bg.demand_hi_Bps = 0.75 * 1.175e9;
      bg.mean_on_s = 50000.0;
      bg.mean_off_s = 300.0;
      // An aggregate of many unrelated flows: it holds its bandwidth share
      // against a single transfer's handful of TCP streams.
      bg.weight = 256.0;
      scenario.backgrounds.push_back(bg);
    }
  }

  // --- Workload --------------------------------------------------------------
  WorkloadConfig workload;
  workload.duration_s = config.duration_s;
  workload.arrivals_per_s = config.session_arrivals_per_s;
  workload.session_mean_transfers = config.session_mean_transfers;
  workload.session_gap_s = 300.0;  // Session members mostly run one at a time.
  // Keep every endpoint's offered load inside its service capacity (see
  // temper_offered_load): open-loop overload has no steady state.
  temper_offered_load(profiles, scenario.endpoints, workload);
  scenario.workload = generate_workload(profiles, workload, rng);
  return scenario;
}

// ---------------------------------------------------------------------------
// NERSC LMT (§5.5.2)
// ---------------------------------------------------------------------------

namespace {
/// Paper: 10 concurrent Globus load transfers.
constexpr std::size_t kLmtLoadTransfers = 10;
}  // namespace

Scenario make_nersc_lmt(const LmtConfig& config) {
  Scenario scenario;
  scenario.sim_config.seed = config.seed;
  // The paper's controlled experiment is nearly deterministic given load
  // (95th-percentile error 1.26% once load is observed, and every logged
  // Nflt was uniform): faults are disabled for this intra-site scenario.
  scenario.sim_config.enable_faults = false;
  // The service-level concurrency cap never binds in the paper's setup.
  scenario.sim_config.max_active_per_endpoint = 64;
  Rng rng(config.seed);

  const auto nersc = scenario.sites.add({"NERSC", {37.876, -122.253}});

  // Two Lustre-backed endpoints: one OST pair on the DTN filesystem, one on
  // the Edison-shared filesystem. OST-class storage: a single OST delivers
  // a few hundred MB/s, far below the LAN between them.
  auto make_lustre_endpoint = [&](const char* name) {
    endpoint::EndpointSpec spec;
    spec.name = name;
    spec.site = nersc;
    spec.type = endpoint::EndpointType::kServer;
    spec.nic_in_Bps = gbit(10.0);
    spec.nic_out_Bps = gbit(10.0);
    spec.cpu_Bps = gbit(12.0);
    spec.disk.read_Bps = 6.0e8;
    spec.disk.write_Bps = 5.0e8;
    spec.disk.per_file_overhead_s = 0.02;
    spec.disk.per_dir_overhead_s = 0.1;
    return spec;
  };
  const auto src = scenario.endpoints.add(make_lustre_endpoint("lustre-dtn-ost"));
  const auto dst =
      scenario.endpoints.add(make_lustre_endpoint("lustre-edison-ost"));
  // Sibling OSTs on the same two filesystems: Lustre stripes the competing
  // load across many OSTs, so the monitored test pair is only partially
  // contended (if the test OSTs were always saturated, their measured load
  // would equal capacity and carry no information about the split).
  const auto src2 =
      scenario.endpoints.add(make_lustre_endpoint("lustre-dtn-ost2"));
  const auto dst2 =
      scenario.endpoints.add(make_lustre_endpoint("lustre-edison-ost2"));
  scenario.heavy_edges.push_back({src, dst});
  scenario.monitored_endpoints = {src, dst};
  scenario.sample_interval_s = config.sample_interval_s;

  // Controlled test transfers: uniform characteristics (paper: "Nb, Nf and
  // Ndir are the same across all transfers").
  double submit = 60.0;
  for (std::size_t t = 0; t < config.test_transfers; ++t) {
    TransferRequest req;
    req.id = kLmtTestFirstId + t;
    req.src = src;
    req.dst = dst;
    req.submit_s = submit;
    req.bytes = 2.4e10;  // ~2-6 min at contended OST rates: long enough
    req.files = 96;      // that window-mean load determines the rate.
    req.dirs = 1;
    req.params.concurrency = 4;
    req.params.parallelism = 2;
    scenario.workload.push_back(req);
    submit += rng.exponential(1.0 / config.test_interarrival_s);
  }

  // Competing Globus load: the paper keeps "10 additional simultaneous
  // Globus load transfers running at all times" - a closed-loop, constant
  // population, not a Poisson stream. Emulate it with fixed slots, each
  // submitting back-to-back transfers sized to its expected fair share,
  // so the competitor count stays near the target throughout.
  const double span_end =
      scenario.workload.back().submit_s + 600.0;
  std::uint64_t load_id = kLmtLoadFirstId;
  for (std::size_t slot = 0; slot < kLmtLoadTransfers; ++slot) {
    const double slot_duration = 600.0;
    double load_submit = rng.uniform(0.0, slot_duration);  // Stagger starts.
    // Each slot is pinned to one OST of each filesystem for the whole
    // experiment (Lustre stripe assignment is static): the load on the
    // monitored pair changes slowly, so window-mean LMT features describe
    // the conditions a transfer actually experienced.
    const bool forward = slot % 2 == 0;
    const auto from = rng.bernoulli(0.5) ? src : src2;
    const auto to = rng.bernoulli(0.5) ? dst : dst2;
    while (load_submit < span_end) {
      TransferRequest req;
      req.id = load_id++;
      req.src = forward ? from : to;
      req.dst = forward ? to : from;
      req.submit_s = load_submit;
      // Sized for ~600 s at the expected contended per-transfer share.
      req.bytes = 4.0e10 * rng.uniform(0.85, 1.15);
      req.files = static_cast<std::uint64_t>(rng.uniform_int(16, 64));
      req.dirs = 1;
      req.params.concurrency = 4;
      req.params.parallelism = 2;
      scenario.workload.push_back(req);
      load_submit += slot_duration * rng.uniform(0.95, 1.1);
    }
  }
  std::sort(scenario.workload.begin(), scenario.workload.end(),
            [](const TransferRequest& a, const TransferRequest& b) {
              if (a.submit_s != b.submit_s) return a.submit_s < b.submit_s;
              return a.id < b.id;
            });

  // The unknown the baseline model cannot see: non-Globus storage load on
  // both OSTs (batch jobs reading/writing the shared filesystem).
  for (auto id : {src, dst, src2, dst2}) {
    const auto& spec = scenario.endpoints[id];
    for (auto component : {Component::kDiskRead, Component::kDiskWrite}) {
      BackgroundSpec bg;
      bg.endpoint = id;
      bg.component = component;
      const double cap = component == Component::kDiskRead
                             ? spec.disk.read_Bps
                             : spec.disk.write_Bps;
      bg.demand_lo_Bps = 0.10 * cap;
      bg.demand_hi_Bps = 0.40 * cap;
      bg.mean_on_s = 300.0;
      bg.mean_off_s = 500.0;
      scenario.backgrounds.push_back(bg);
    }
  }

  // Intra-site LAN path: fat and clean.
  net::WanPath lan;
  lan.rtt_s = 0.0005;
  lan.capacity_Bps = 5.0e9;
  lan.loss_rate = 1.0e-8;
  // Store via a simulator-side override when run() builds the simulator:
  // the scenario keeps it in `lan_paths`.
  scenario.lan_paths.push_back({nersc, nersc, lan});
  return scenario;
}

}  // namespace xfl::sim
