// Fluid discrete-event simulator of wide-area disk-to-disk transfers.
//
// This is the data substrate standing in for the paper's (closed) Globus
// production logs. Transfers, probes, and background processes are fluid
// flows over shared rate resources (disk read/write, NIC in/out, CPU, WAN
// paths). Rates are piecewise constant: on every event (arrival, data-phase
// start, completion, fault, resume, background toggle) the weighted max-min
// solver in resources.hpp recomputes the rates of every flow the event can
// affect, bit-identical to a full re-solve. See DESIGN.md §5 for the
// modeling decisions.
//
// Lifecycle of a transfer:
//   submit ──(startup: control channel, per-pair setup, directory
//             creation; occupies GridFTP slots but moves no bytes)──▶
//   running ──(fluid data movement; Poisson faults stall it and refetch
//              part of a file)──▶ complete (one TransferRecord logged)
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "endpoint/endpoint.hpp"
#include "endpoint/gridftp.hpp"
#include "logs/log_store.hpp"
#include "net/path.hpp"
#include "net/site.hpp"
#include "net/tcp_model.hpp"
#include "sim/background.hpp"
#include "sim/resources.hpp"
#include "sim/transfer.hpp"

namespace xfl::sim {

/// Global simulator knobs.
struct SimConfig {
  net::TcpConfig tcp;
  endpoint::FaultPolicy fault_policy;
  bool enable_faults = true;
  /// Passes of the cap/efficiency fixed-point iteration (DESIGN.md §5.2).
  int allocation_passes = 2;
  /// RNG seed for faults and background processes.
  std::uint64_t seed = 1;
  /// Admission control: at most this many transfers may be active
  /// (startup/running/stalled) at any endpoint; excess arrivals queue
  /// FIFO inside the service, and the queue wait counts toward the logged
  /// duration - exactly how the Globus service limits concurrent
  /// transfers per endpoint. Also the simulator's stability guarantee:
  /// concurrency (and hence per-event cost) stays bounded even if a
  /// workload momentarily overloads an endpoint.
  std::uint32_t max_active_per_endpoint = 24;
};

/// One instantaneous utilisation sample for a monitored endpoint. Feeds
/// both the Fig. 4 concurrency analysis and the §5.5.2 LMT features
/// (disk_read/disk_write stand in for OST load, cpu_load for OSS CPU).
struct EndpointSample {
  double time_s = 0.0;
  double gridftp_instances = 0.0;  ///< Active process pairs at the endpoint.
  double in_Bps = 0.0;             ///< Aggregate incoming transfer rate.
  double out_Bps = 0.0;            ///< Aggregate outgoing transfer rate.
  double disk_read_Bps = 0.0;      ///< Total read load incl. background.
  double disk_write_Bps = 0.0;     ///< Total write load incl. background.
  double cpu_load = 0.0;           ///< CPU utilisation in [0, 1].
};

/// One SNMP-style sample of a wide-area path's carried traffic (Globus and
/// cross-traffic alike) — the router-counter data §8 names as future work.
struct WanSample {
  double time_s = 0.0;
  double load_Bps = 0.0;
};

/// Aggregate statistics of one simulation run.
struct SimStats {
  std::uint64_t events = 0;            ///< Main-loop iterations processed.
  std::uint32_t peak_active = 0;       ///< Max concurrent transfers at any endpoint.
  std::size_t peak_queue = 0;          ///< Max admission-queue length.
  double makespan_s = 0.0;             ///< Completion time of the last transfer.
  double total_bytes = 0.0;            ///< Payload moved.
  std::uint64_t total_faults = 0;      ///< Faults across all transfers.
};

/// Simulation output: the Globus-style log plus optional monitor series.
struct SimResult {
  logs::LogStore log;
  std::map<endpoint::EndpointId, std::vector<EndpointSample>> samples;
  std::map<std::pair<net::SiteId, net::SiteId>, std::vector<WanSample>>
      wan_samples;
  SimStats stats;
};

/// The simulator. Construct, optionally customise paths / background /
/// sampling, submit all transfer requests, then run() once.
class Simulator {
 public:
  Simulator(const net::SiteCatalog& sites,
            const endpoint::EndpointCatalog& endpoints, SimConfig config);

  /// Override the WAN path for a directed site pair (defaults come from
  /// net::derive_path geometry).
  void set_wan_path(net::SiteId src_site, net::SiteId dst_site,
                    const net::WanPath& path);

  /// Register a background-load process (see background.hpp).
  void add_background(const BackgroundSpec& spec);

  /// Record utilisation samples for `id` every `interval_s` seconds.
  void enable_sampling(endpoint::EndpointId id, double interval_s);

  /// Record SNMP-style load samples for the directed WAN path between two
  /// sites every `interval_s` seconds (§8's router-counter extension).
  void enable_wan_sampling(net::SiteId src_site, net::SiteId dst_site,
                           double interval_s);

  /// Queue a transfer. All submissions must happen before run().
  void submit(const TransferRequest& request);

  /// Run to completion of all submitted transfers. Can only be called once.
  SimResult run();

 private:
  enum class TransferState : std::uint8_t {
    kPending,  ///< Submitted but not yet arrived.
    kStartup,  ///< Control-channel + directory setup; occupies instances.
    kRunning,  ///< Fluid data movement.
    kStalled,  ///< Fault backoff.
    kDone,
  };

  struct ActiveTransfer {
    TransferRequest req;
    TransferState state = TransferState::kPending;
    double remaining_bytes = 0.0;
    double rate_Bps = 0.0;
    std::uint32_t faults = 0;
    std::uint32_t procs = 1;
    std::uint32_t streams = 1;
    double tcp_cap_Bps = 0.0;
    double mean_file_bytes = 1.0;
    double per_file_overhead_s = 0.0;
    double cpu_factor = 1.0;
    double utilisation = 0.0;
    std::uint64_t epoch = 0;  ///< Invalidates stale fault/resume events.
    std::vector<ResourceUsage> usage;
    MaxMinSolver::FlowId flow = 0;  ///< Its solver flow while running.
  };

  enum class EventType : std::uint8_t {
    kArrival,
    kStartData,
    kFaultCandidate,
    kResume,
    kBackgroundToggle,
    kSample,
    kWanSample,
  };

  struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;  ///< FIFO tie-break for equal times.
    EventType type = EventType::kArrival;
    std::size_t index = 0;    ///< Transfer / background / monitor index.
    std::uint64_t epoch = 0;  ///< Matched against the transfer's epoch.

    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  struct BackgroundState {
    BackgroundSpec spec;
    bool on = false;
    double demand_Bps = 0.0;
    ResourceUsage use;  ///< Its one resource, at spec.weight.
    MaxMinSolver::FlowId flow = 0;  ///< Its solver flow while demanding.
  };

  struct MonitorState {
    endpoint::EndpointId endpoint = 0;
    double interval_s = 0.0;
  };

  struct WanMonitorState {
    net::SiteId src_site = 0;
    net::SiteId dst_site = 0;
    ResourceId resource = 0;
    double interval_s = 0.0;
  };

  struct EndpointResources {
    ResourceId disk_read, disk_write, nic_in, nic_out, cpu;
  };

  void push_event(double time, EventType type, std::size_t index,
                  std::uint64_t epoch = 0);
  bool admissible(const TransferRequest& request) const;
  void admit(std::size_t index, double now);
  void drain_admission_queue(double now);
  ResourceId wan_resource(net::SiteId src_site, net::SiteId dst_site);
  const net::WanPath& wan_path(net::SiteId src_site, net::SiteId dst_site);
  void build_usage(ActiveTransfer& transfer);
  void refresh_cpu(endpoint::EndpointId id);
  void start_flow(std::size_t index);
  void stop_flow(std::size_t index);
  void start_background(std::size_t b);
  void reallocate(double now);
  void advance_progress(double from, double to);
  std::optional<std::pair<double, std::size_t>> next_completion(double now) const;
  void handle_event(const Event& event, double now);
  void complete_transfer(std::size_t index, double now);
  void record_sample(const MonitorState& monitor, double now);
  void schedule_fault_candidate(std::size_t index, double now);

  const net::SiteCatalog& sites_;
  const endpoint::EndpointCatalog& endpoints_;
  SimConfig config_;
  Rng rng_;

  ResourcePool pool_;
  std::vector<EndpointResources> endpoint_resources_;
  std::map<std::pair<net::SiteId, net::SiteId>, ResourceId> wan_resources_;
  std::map<std::pair<net::SiteId, net::SiteId>, net::WanPath> wan_paths_;

  std::vector<ActiveTransfer> transfers_;
  std::vector<BackgroundState> backgrounds_;
  std::vector<MonitorState> monitors_;
  std::vector<WanMonitorState> wan_monitors_;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::uint64_t next_seq_ = 0;
  std::size_t completed_ = 0;
  bool ran_ = false;

  // The solver's flow table persists across events: a transfer joins when
  // it starts or resumes data and leaves when it stalls or completes, a
  // background while it is on with a positive demand. Flow order is running transfers in live_
  // order (order key: slot in live_), then active backgrounds by index
  // (key: transfers_.size() + index). flow_owner_ maps a solver flow back
  // to that key's owner: a transfer index, or transfers_.size() + index.
  MaxMinSolver solver_;
  std::vector<std::size_t> flow_owner_;
  std::vector<std::size_t> running_;  ///< Running transfers, in live_ order.
  std::uint64_t reallocations_ = 0;
  std::uint64_t flows_offered_ = 0;   ///< Flows in the table, per reallocation.
  std::uint64_t flows_visited_ = 0;   ///< Of those, flows the planner touched.
  std::uint64_t flows_resolved_ = 0;  ///< Of those, flows re-solved.

  // Incremental state so that reallocate() never scans the full (possibly
  // enormous) submitted-transfer list: transfers that have arrived but not
  // completed, and live GridFTP process-pair counts per endpoint.
  std::vector<std::size_t> live_;
  std::vector<std::size_t> live_pos_;  ///< transfer index -> slot in live_.
  std::vector<double> instances_;      ///< Per endpoint.
  std::vector<std::uint32_t> active_transfers_;  ///< Per endpoint.
  std::deque<std::size_t> admission_queue_;      ///< FIFO of waiting arrivals.

  SimResult result_;
};

}  // namespace xfl::sim
