#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/contracts.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/disk.hpp"

namespace xfl::sim {

namespace {
constexpr double kMinCapBps = 1.0;       // No live flow may be starved to 0.
constexpr double kMinDurationS = 1.0e-3; // Log floor for instant transfers.
// Mean fraction of one file re-sent after a fault.
constexpr double kRefetchFraction = 0.5;

/// Run-level observability: totals are added once per run(), never inside
/// the event loop; the loop itself pays only the periodic progress check.
struct SimMetrics {
  obs::Counter& runs = obs::counter("sim.runs");
  obs::Counter& events = obs::counter("sim.events");
  obs::Counter& transfers = obs::counter("sim.transfers");
  obs::Counter& reallocations = obs::counter("sim.reallocations");
  obs::Counter& flows_offered = obs::counter("sim.flows_offered");
  obs::Counter& flows_visited = obs::counter("sim.flows_visited");
  obs::Counter& flows_resolved = obs::counter("sim.flows_resolved");
  obs::Histogram& run_us = obs::histogram("sim.run_us");
};

SimMetrics& sim_metrics() {
  static SimMetrics metrics;
  return metrics;
}
}  // namespace

Simulator::Simulator(const net::SiteCatalog& sites,
                     const endpoint::EndpointCatalog& endpoints,
                     SimConfig config)
    : sites_(sites), endpoints_(endpoints), config_(config), rng_(config.seed) {
  endpoint_resources_.reserve(endpoints_.size());
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    const auto& spec = endpoints_[static_cast<endpoint::EndpointId>(i)];
    EndpointResources res;
    res.disk_read = pool_.add(spec.name + ".disk_read", spec.disk.read_Bps);
    res.disk_write = pool_.add(spec.name + ".disk_write", spec.disk.write_Bps);
    res.nic_in = pool_.add(spec.name + ".nic_in", spec.nic_in_Bps);
    res.nic_out = pool_.add(spec.name + ".nic_out", spec.nic_out_Bps);
    res.cpu = pool_.add(spec.name + ".cpu", spec.cpu_Bps);
    endpoint_resources_.push_back(res);
  }
  instances_.assign(endpoints_.size(), 0.0);
  active_transfers_.assign(endpoints_.size(), 0);
}

void Simulator::set_wan_path(net::SiteId src_site, net::SiteId dst_site,
                             const net::WanPath& path) {
  XFL_EXPECTS(!ran_);
  const auto key = std::make_pair(src_site, dst_site);
  wan_paths_[key] = path;
  auto it = wan_resources_.find(key);
  if (it != wan_resources_.end())
    pool_.set_capacity(it->second, path.capacity_Bps);
}

const net::WanPath& Simulator::wan_path(net::SiteId src_site,
                                        net::SiteId dst_site) {
  const auto key = std::make_pair(src_site, dst_site);
  auto it = wan_paths_.find(key);
  if (it == wan_paths_.end())
    it = wan_paths_.emplace(key, net::derive_path(sites_, src_site, dst_site))
             .first;
  return it->second;
}

ResourceId Simulator::wan_resource(net::SiteId src_site, net::SiteId dst_site) {
  const auto key = std::make_pair(src_site, dst_site);
  auto it = wan_resources_.find(key);
  if (it == wan_resources_.end()) {
    const auto& path = wan_path(src_site, dst_site);
    const std::string name = "wan." + sites_[src_site].name + "->" +
                             sites_[dst_site].name;
    it = wan_resources_.emplace(key, pool_.add(name, path.capacity_Bps)).first;
  }
  return it->second;
}

void Simulator::add_background(const BackgroundSpec& spec) {
  XFL_EXPECTS(!ran_);
  XFL_EXPECTS(spec.valid());
  BackgroundState state;
  state.spec = spec;
  switch (spec.component) {
    case Component::kDiskRead:
      state.use.resource = endpoint_resources_.at(spec.endpoint).disk_read;
      break;
    case Component::kDiskWrite:
      state.use.resource = endpoint_resources_.at(spec.endpoint).disk_write;
      break;
    case Component::kNicIn:
      state.use.resource = endpoint_resources_.at(spec.endpoint).nic_in;
      break;
    case Component::kNicOut:
      state.use.resource = endpoint_resources_.at(spec.endpoint).nic_out;
      break;
    case Component::kWan:
      state.use.resource = wan_resource(spec.wan_src, spec.wan_dst);
      break;
  }
  state.use.weight = spec.weight;
  backgrounds_.push_back(state);
}

void Simulator::enable_sampling(endpoint::EndpointId id, double interval_s) {
  XFL_EXPECTS(!ran_);
  XFL_EXPECTS(id < endpoints_.size());
  XFL_EXPECTS(interval_s > 0.0);
  monitors_.push_back({id, interval_s});
}

void Simulator::enable_wan_sampling(net::SiteId src_site,
                                    net::SiteId dst_site, double interval_s) {
  XFL_EXPECTS(!ran_);
  XFL_EXPECTS(interval_s > 0.0);
  WanMonitorState monitor;
  monitor.src_site = src_site;
  monitor.dst_site = dst_site;
  monitor.resource = wan_resource(src_site, dst_site);
  monitor.interval_s = interval_s;
  wan_monitors_.push_back(monitor);
}

void Simulator::submit(const TransferRequest& request) {
  XFL_EXPECTS(!ran_);
  XFL_EXPECTS(request.valid());
  XFL_EXPECTS(request.src < endpoints_.size());
  XFL_EXPECTS(request.dst < endpoints_.size());
  ActiveTransfer transfer;
  transfer.req = request;
  transfer.remaining_bytes = request.bytes;
  transfers_.push_back(std::move(transfer));
  live_pos_.push_back(static_cast<std::size_t>(-1));
}

void Simulator::push_event(double time, EventType type, std::size_t index,
                           std::uint64_t epoch) {
  queue_.push(Event{time, next_seq_++, type, index, epoch});
}

void Simulator::build_usage(ActiveTransfer& transfer) {
  const auto& req = transfer.req;
  const auto& src = endpoints_[req.src];
  const auto& dst = endpoints_[req.dst];
  transfer.procs = endpoint::effective_concurrency(req.params, req.files);
  transfer.streams = endpoint::total_streams(req.params, req.files);
  transfer.cpu_factor = endpoint::cpu_work_factor(req.params);
  transfer.mean_file_bytes =
      std::max(1.0, req.bytes / static_cast<double>(req.files));

  const auto& path = wan_path(src.site, dst.site);
  transfer.tcp_cap_Bps = std::max(
      kMinCapBps, net::parallel_stream_ceiling_Bps(
                      config_.tcp, transfer.streams, path.rtt_s, path.loss_rate));
  transfer.per_file_overhead_s =
      std::max(endpoint::per_file_overhead_s(req.params, src.disk, path.rtt_s),
               endpoint::per_file_overhead_s(req.params, dst.disk, path.rtt_s));

  const double procs = transfer.procs;
  const double streams = transfer.streams;
  const auto& sres = endpoint_resources_[req.src];
  const auto& dres = endpoint_resources_[req.dst];
  transfer.usage.clear();
  if (req.use_src_disk)
    transfer.usage.push_back({sres.disk_read, procs, 1.0});
  transfer.usage.push_back({sres.cpu, procs, transfer.cpu_factor});
  transfer.usage.push_back({sres.nic_out, streams, 1.0});
  transfer.usage.push_back(
      {wan_resource(src.site, dst.site), streams, 1.0});
  transfer.usage.push_back({dres.nic_in, streams, 1.0});
  transfer.usage.push_back({dres.cpu, procs, transfer.cpu_factor});
  if (req.use_dst_disk)
    transfer.usage.push_back({dres.disk_write, procs, 1.0});
}

void Simulator::refresh_cpu(endpoint::EndpointId id) {
  // CPU efficiency decays with the number of GridFTP process pairs alive at
  // the endpoint (startup, running, or stalled).
  const ResourceId cpu = endpoint_resources_[id].cpu;
  const double capacity =
      endpoints_[id].cpu_Bps *
      endpoint::cpu_efficiency(instances_[id]);
  if (std::bit_cast<std::uint64_t>(capacity) ==
      std::bit_cast<std::uint64_t>(pool_.capacity(cpu)))
    return;
  pool_.set_capacity(cpu, capacity);
  solver_.mark_dirty(cpu);
}

void Simulator::start_flow(std::size_t index) {
  auto& transfer = transfers_[index];
  transfer.state = TransferState::kRunning;
  transfer.flow = solver_.join(pool_, transfer.usage, transfer.tcp_cap_Bps,
                               live_pos_[index]);
  if (flow_owner_.size() <= transfer.flow) flow_owner_.resize(transfer.flow + 1);
  flow_owner_[transfer.flow] = index;
  running_.insert(std::lower_bound(running_.begin(), running_.end(),
                                   live_pos_[index],
                                   [this](std::size_t t, std::size_t pos) {
                                     return live_pos_[t] < pos;
                                   }),
                  index);
}

void Simulator::stop_flow(std::size_t index) {
  solver_.leave(transfers_[index].flow);
  running_.erase(std::find(running_.begin(), running_.end(), index));
}

void Simulator::start_background(std::size_t b) {
  auto& bg = backgrounds_[b];
  if (bg.demand_Bps <= 0.0) return;  // Nothing to carry: not a flow.
  const std::size_t key = transfers_.size() + b;
  bg.flow = solver_.join(pool_, {&bg.use, 1}, bg.demand_Bps, key);
  if (flow_owner_.size() <= bg.flow) flow_owner_.resize(bg.flow + 1);
  flow_owner_[bg.flow] = key;
}

void Simulator::reallocate(double /*now*/) {
  // 1. Re-solve the components an event changed (resources.hpp). Flows the
  //    solver does not select keep their rates, and their resources their
  //    loads.
  ++reallocations_;
  flows_offered_ += solver_.flow_count();
  flows_visited_ += solver_.plan();
  const auto selected = solver_.selected();
  flows_resolved_ += selected.size();
  solver_.solve(pool_);

  // 2. Fixed-point pass for per-file overhead efficiency (DESIGN.md §5.2):
  //    cap each transfer at the throughput its pass-1 burst rate sustains
  //    once per-file dead time is accounted for, then re-solve so that the
  //    released capacity benefits other flows. Backgrounds keep their
  //    demand as cap; only components whose caps changed are re-solved.
  if (config_.allocation_passes >= 2) {
    for (const auto f : selected) {
      const std::size_t owner = flow_owner_[f];
      if (owner >= transfers_.size()) continue;
      const auto& transfer = transfers_[owner];
      const double per_pair =
          solver_.rate(f) / static_cast<double>(transfer.procs);
      const double effective =
          static_cast<double>(transfer.procs) *
          storage::file_overhead_efficiency_Bps(per_pair,
                                                transfer.mean_file_bytes,
                                                transfer.per_file_overhead_s);
      solver_.set_cap(
          f, std::max(kMinCapBps, std::min(transfer.tcp_cap_Bps, effective)));
    }
    solver_.solve(pool_);
  }

  // 3. Record the rate and utilisation of each re-solved transfer. A
  //    transfer in a clean component keeps both: its rate, and the loads
  //    and capacities of its resources, are as they were.
  for (const auto f : selected) {
    const std::size_t owner = flow_owner_[f];
    if (owner >= transfers_.size()) continue;
    auto& transfer = transfers_[owner];
    transfer.rate_Bps = solver_.rate(f);
    // Utilisation drives the fault model and must measure *external*
    // contention: the load others place on the transfer's resources. A lone
    // transfer saturating its own bottleneck is not a stressed system, so
    // its own consumption is subtracted before normalising.
    double util = 0.0;
    for (const auto& use : transfer.usage) {
      const double cap = pool_.capacity(use.resource);
      if (cap <= 0.0) continue;
      const double own = transfer.rate_Bps * use.consumption_factor;
      const double external =
          std::max(0.0, solver_.load(use.resource) - own);
      util = std::max(util, external / cap);
    }
    transfer.utilisation = std::min(util, 1.0);
  }
}

void Simulator::advance_progress(double from, double to) {
  XFL_EXPECTS(to >= from);
  const double dt = to - from;
  if (dt == 0.0) return;
  for (std::size_t i : running_) {
    auto& transfer = transfers_[i];
    transfer.remaining_bytes =
        std::max(0.0, transfer.remaining_bytes - transfer.rate_Bps * dt);
  }
}

std::optional<std::pair<double, std::size_t>> Simulator::next_completion(
    double now) const {
  std::optional<std::pair<double, std::size_t>> best;
  for (std::size_t i : running_) {
    const auto& transfer = transfers_[i];
    double when;
    if (transfer.remaining_bytes <= 0.0) {
      when = now;
    } else if (transfer.rate_Bps > 0.0) {
      when = now + transfer.remaining_bytes / transfer.rate_Bps;
    } else {
      continue;  // Starved flow; it will move after the next reallocation.
    }
    if (!best || when < best->first) best = {when, i};
  }
  return best;
}

void Simulator::complete_transfer(std::size_t index, double now) {
  auto& transfer = transfers_[index];
  XFL_EXPECTS(transfer.state == TransferState::kRunning);
  stop_flow(index);
  transfer.state = TransferState::kDone;
  ++transfer.epoch;
  ++completed_;
  instances_[transfer.req.src] -= transfer.procs;
  instances_[transfer.req.dst] -= transfer.procs;
  refresh_cpu(transfer.req.src);
  refresh_cpu(transfer.req.dst);
  // Swap-remove from the live list. The moved transfer now precedes the
  // ones it jumped over, which changes flow order on its resources; it was
  // the last running transfer in live_ order, so it moves up in running_.
  const std::size_t slot = live_pos_[index];
  const std::size_t last = live_.back();
  live_[slot] = last;
  live_pos_[last] = slot;
  live_.pop_back();
  live_pos_[index] = static_cast<std::size_t>(-1);
  if (last != index && transfers_[last].state == TransferState::kRunning) {
    solver_.reorder(transfers_[last].flow, slot);
    const auto to = std::lower_bound(
        running_.begin(), running_.end() - 1, slot,
        [this](std::size_t t, std::size_t pos) { return live_pos_[t] < pos; });
    std::rotate(to, running_.end() - 1, running_.end());
  }
  --active_transfers_[transfer.req.src];
  --active_transfers_[transfer.req.dst];

  const auto& req = transfer.req;
  logs::TransferRecord record;
  record.id = req.id;
  record.src = req.src;
  record.dst = req.dst;
  record.start_s = req.submit_s;
  record.end_s = std::max(now, req.submit_s + kMinDurationS);
  record.bytes = req.bytes;
  record.files = req.files;
  record.dirs = req.dirs;
  record.concurrency = req.params.concurrency;
  record.parallelism = req.params.parallelism;
  record.faults = transfer.faults;
  record.src_type = endpoints_[req.src].type;
  record.dst_type = endpoints_[req.dst].type;
  result_.stats.makespan_s = std::max(result_.stats.makespan_s, record.end_s);
  result_.stats.total_bytes += record.bytes;
  result_.stats.total_faults += record.faults;
  result_.log.append(record);
}

void Simulator::schedule_fault_candidate(std::size_t index, double now) {
  if (!config_.enable_faults) return;
  const auto& policy = config_.fault_policy;
  const double lambda_max =
      policy.base_rate_per_s + endpoint::kLoadFaultRatePerS;
  if (lambda_max <= 0.0) return;
  const double dt = rng_.exponential(lambda_max);
  push_event(now + dt, EventType::kFaultCandidate, index,
             transfers_[index].epoch);
}

void Simulator::record_sample(const MonitorState& monitor, double now) {
  const auto id = monitor.endpoint;
  const auto& res = endpoint_resources_[id];
  const auto& spec = endpoints_[id];
  EndpointSample sample;
  sample.time_s = now;
  for (const std::size_t t : live_) {
    const auto& transfer = transfers_[t];
    if (transfer.req.src != id && transfer.req.dst != id) continue;
    sample.gridftp_instances += transfer.procs;
    if (transfer.state == TransferState::kRunning) {
      if (transfer.req.dst == id) sample.in_Bps += transfer.rate_Bps;
      if (transfer.req.src == id) sample.out_Bps += transfer.rate_Bps;
    }
  }
  sample.disk_read_Bps = solver_.load(res.disk_read);
  sample.disk_write_Bps = solver_.load(res.disk_write);
  sample.cpu_load = spec.cpu_Bps > 0.0
                        ? std::min(1.0, solver_.load(res.cpu) / spec.cpu_Bps)
                        : 0.0;
  result_.samples[id].push_back(sample);
}

bool Simulator::admissible(const TransferRequest& request) const {
  return active_transfers_[request.src] < config_.max_active_per_endpoint &&
         active_transfers_[request.dst] < config_.max_active_per_endpoint;
}

void Simulator::admit(std::size_t index, double now) {
  auto& transfer = transfers_[index];
  XFL_EXPECTS(transfer.state == TransferState::kPending);
  transfer.state = TransferState::kStartup;
  build_usage(transfer);
  live_pos_[index] = live_.size();
  live_.push_back(index);
  instances_[transfer.req.src] += transfer.procs;
  instances_[transfer.req.dst] += transfer.procs;
  refresh_cpu(transfer.req.src);
  refresh_cpu(transfer.req.dst);
  ++active_transfers_[transfer.req.src];
  ++active_transfers_[transfer.req.dst];
  result_.stats.peak_active =
      std::max({result_.stats.peak_active, active_transfers_[transfer.req.src],
                active_transfers_[transfer.req.dst]});

  const auto& src = endpoints_[transfer.req.src];
  const auto& dst = endpoints_[transfer.req.dst];
  const auto& path = wan_path(src.site, dst.site);
  const double dir_cost =
      static_cast<double>(transfer.req.dirs) *
      std::max(src.disk.per_dir_overhead_s, dst.disk.per_dir_overhead_s);
  const double setup =
      endpoint::startup_cost_s(transfer.req.params, path.rtt_s) + dir_cost;
  push_event(now + setup, EventType::kStartData, index, transfer.epoch);
}

void Simulator::drain_admission_queue(double now) {
  // FIFO with head-of-line blocking per endpoint pair: scan the queue once
  // and admit every transfer whose endpoints have room. (A strict global
  // FIFO would let one saturated endpoint block unrelated pairs.)
  bool admitted = false;
  for (auto it = admission_queue_.begin(); it != admission_queue_.end();) {
    if (admissible(transfers_[*it].req)) {
      admit(*it, now);
      it = admission_queue_.erase(it);
      admitted = true;
    } else {
      ++it;
    }
  }
  if (admitted) reallocate(now);
}

void Simulator::handle_event(const Event& event, double now) {
  switch (event.type) {
    case EventType::kArrival: {
      auto& transfer = transfers_[event.index];
      XFL_EXPECTS(transfer.state == TransferState::kPending);
      if (admissible(transfer.req)) {
        admit(event.index, now);
        reallocate(now);  // New instances shift CPU efficiency.
      } else {
        admission_queue_.push_back(event.index);
        result_.stats.peak_queue =
            std::max(result_.stats.peak_queue, admission_queue_.size());
      }
      break;
    }
    case EventType::kStartData: {
      auto& transfer = transfers_[event.index];
      if (transfer.epoch != event.epoch ||
          transfer.state != TransferState::kStartup)
        break;
      start_flow(event.index);
      reallocate(now);
      schedule_fault_candidate(event.index, now);
      break;
    }
    case EventType::kFaultCandidate: {
      auto& transfer = transfers_[event.index];
      if (transfer.epoch != event.epoch ||
          transfer.state != TransferState::kRunning)
        break;
      const auto& policy = config_.fault_policy;
      const double lambda_max =
          policy.base_rate_per_s + endpoint::kLoadFaultRatePerS;
      const double lambda =
          endpoint::fault_intensity_per_s(policy, transfer.utilisation);
      if (rng_.uniform() < lambda / lambda_max) {
        // Fault: stall the transfer and lose part of the in-flight file.
        ++transfer.faults;
        const double done = transfer.req.bytes - transfer.remaining_bytes;
        const double refetch =
            std::min(done, kRefetchFraction * transfer.mean_file_bytes *
                               rng_.uniform());
        transfer.remaining_bytes += refetch;
        stop_flow(event.index);
        transfer.state = TransferState::kStalled;
        ++transfer.epoch;
        push_event(now + policy.retry_delay_s, EventType::kResume, event.index,
                   transfer.epoch);
        reallocate(now);
      } else {
        schedule_fault_candidate(event.index, now);
      }
      break;
    }
    case EventType::kResume: {
      auto& transfer = transfers_[event.index];
      if (transfer.epoch != event.epoch ||
          transfer.state != TransferState::kStalled)
        break;
      start_flow(event.index);
      reallocate(now);
      schedule_fault_candidate(event.index, now);
      break;
    }
    case EventType::kBackgroundToggle: {
      auto& bg = backgrounds_[event.index];
      bg.on = !bg.on;
      double next_mean;
      if (bg.on) {
        bg.demand_Bps =
            rng_.uniform(bg.spec.demand_lo_Bps, bg.spec.demand_hi_Bps);
        start_background(event.index);
        next_mean = bg.spec.mean_on_s;
      } else {
        if (bg.demand_Bps > 0.0) solver_.leave(bg.flow);
        bg.demand_Bps = 0.0;
        next_mean = bg.spec.mean_off_s;
      }
      push_event(now + rng_.exponential(1.0 / next_mean),
                 EventType::kBackgroundToggle, event.index);
      reallocate(now);
      break;
    }
    case EventType::kSample: {
      const auto& monitor = monitors_[event.index];
      record_sample(monitor, now);
      push_event(now + monitor.interval_s, EventType::kSample, event.index);
      break;
    }
    case EventType::kWanSample: {
      const auto& monitor = wan_monitors_[event.index];
      WanSample sample;
      sample.time_s = now;
      sample.load_Bps = solver_.load(monitor.resource);
      result_.wan_samples[{monitor.src_site, monitor.dst_site}].push_back(
          sample);
      push_event(now + monitor.interval_s, EventType::kWanSample, event.index);
      break;
    }
  }
}

SimResult Simulator::run() {
  XFL_EXPECTS(!ran_);
  ran_ = true;
  XFL_SPAN("sim.run");
  const std::uint64_t start_us = obs::monotonic_us();
  std::uint64_t iterations = 0;

  for (std::size_t i = 0; i < transfers_.size(); ++i)
    push_event(transfers_[i].req.submit_s, EventType::kArrival, i);

  for (std::size_t b = 0; b < backgrounds_.size(); ++b) {
    auto& bg = backgrounds_[b];
    // Start in the stationary distribution of the on/off chain.
    const double p_on =
        bg.spec.mean_on_s / (bg.spec.mean_on_s + bg.spec.mean_off_s);
    bg.on = rng_.bernoulli(p_on);
    if (bg.on) {
      bg.demand_Bps = rng_.uniform(bg.spec.demand_lo_Bps, bg.spec.demand_hi_Bps);
      start_background(b);
    }
    const double mean = bg.on ? bg.spec.mean_on_s : bg.spec.mean_off_s;
    push_event(rng_.exponential(1.0 / mean), EventType::kBackgroundToggle, b);
  }

  for (std::size_t m = 0; m < monitors_.size(); ++m)
    push_event(monitors_[m].interval_s, EventType::kSample, m);
  for (std::size_t m = 0; m < wan_monitors_.size(); ++m)
    push_event(wan_monitors_[m].interval_s, EventType::kWanSample, m);

  for (std::size_t e = 0; e < endpoints_.size(); ++e)
    refresh_cpu(static_cast<endpoint::EndpointId>(e));
  double now = 0.0;
  reallocate(now);

  while (completed_ < transfers_.size()) {
    ++result_.stats.events;
    // Periodic progress for long simulations; XFL_LOG is one relaxed load
    // when debug logging is off, and the modulus gates the formatting.
    if (++iterations % 100000 == 0)
      XFL_LOG(debug) << "sim progress"
                     << obs::kv("events_k", iterations / 1000)
                     << obs::kv("t_s", now)
                     << obs::kv("done", completed_)
                     << obs::kv("total", transfers_.size())
                     << obs::kv("live", live_.size())
                     << obs::kv("running", running_.size())
                     << obs::kv("queue", queue_.size());
    const auto completion = next_completion(now);
    const bool queue_has_event = !queue_.empty();
    XFL_ENSURES(completion.has_value() || queue_has_event);

    if (completion &&
        (!queue_has_event || completion->first <= queue_.top().time)) {
      advance_progress(now, completion->first);
      now = completion->first;
      complete_transfer(completion->second, now);
      drain_admission_queue(now);
      reallocate(now);
    } else {
      const Event event = queue_.top();
      queue_.pop();
      // Sampling and background chatter can outlive the workload; simply
      // drop such events once everything has completed (loop guard above).
      advance_progress(now, event.time);
      now = event.time;
      handle_event(event, now);
    }
  }

  const std::uint64_t elapsed_us = obs::monotonic_us() - start_us;
  auto& metrics = sim_metrics();
  metrics.runs.add(1);
  metrics.events.add(result_.stats.events);
  metrics.transfers.add(transfers_.size());
  metrics.reallocations.add(reallocations_);
  metrics.flows_offered.add(flows_offered_);
  metrics.flows_visited.add(flows_visited_);
  metrics.flows_resolved.add(flows_resolved_);
  metrics.run_us.record(static_cast<double>(elapsed_us));
  XFL_LOG(debug) << "sim run complete"
                 << obs::kv("transfers", transfers_.size())
                 << obs::kv("events", result_.stats.events)
                 << obs::kv("sim_time_s", now)
                 << obs::kv("elapsed_us", elapsed_us);
  return std::move(result_);
}

}  // namespace xfl::sim
