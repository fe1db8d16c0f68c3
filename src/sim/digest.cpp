#include "sim/digest.hpp"

#include <cinttypes>
#include <cstdint>
#include <cstdio>

namespace xfl::sim {

namespace {

/// Incremental FNV-1a 64 over formatted text.
class Fnv1a {
 public:
  void text(const char* s) {
    for (; *s != '\0'; ++s) {
      hash_ ^= static_cast<unsigned char>(*s);
      hash_ *= 0x100000001b3ULL;
    }
  }
  void real(double value) {
    char buffer[48];
    std::snprintf(buffer, sizeof buffer, "%a,", value);
    text(buffer);
  }
  void integer(std::uint64_t value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%" PRIu64 ",", value);
    text(buffer);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::string digest_line(const std::string& name, const SimResult& result) {
  Fnv1a log;
  for (const auto& record : result.log.records()) {
    log.integer(record.id);
    log.integer(record.src);
    log.integer(record.dst);
    log.real(record.start_s);
    log.real(record.end_s);
    log.real(record.bytes);
    log.integer(record.files);
    log.integer(record.dirs);
    log.integer(record.concurrency);
    log.integer(record.parallelism);
    log.integer(record.faults);
    log.integer(static_cast<std::uint64_t>(record.src_type));
    log.integer(static_cast<std::uint64_t>(record.dst_type));
    log.text("\n");
  }

  Fnv1a samples;
  std::size_t sample_count = 0;
  for (const auto& [id, series] : result.samples) {
    samples.integer(id);
    samples.text("\n");
    for (const auto& sample : series) {
      samples.real(sample.time_s);
      samples.real(sample.gridftp_instances);
      samples.real(sample.in_Bps);
      samples.real(sample.out_Bps);
      samples.real(sample.disk_read_Bps);
      samples.real(sample.disk_write_Bps);
      samples.real(sample.cpu_load);
      samples.text("\n");
    }
    sample_count += series.size();
  }

  Fnv1a wan;
  std::size_t wan_count = 0;
  for (const auto& [path, series] : result.wan_samples) {
    wan.integer(path.first);
    wan.integer(path.second);
    wan.text("\n");
    for (const auto& sample : series) {
      wan.real(sample.time_s);
      wan.real(sample.load_Bps);
      wan.text("\n");
    }
    wan_count += series.size();
  }

  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                " events=%" PRIu64 " records=%zu samples=%zu wan_samples=%zu"
                " log=%016" PRIx64 " samples=%016" PRIx64 " wan=%016" PRIx64,
                result.stats.events, result.log.size(), sample_count,
                wan_count, log.value(), samples.value(), wan.value());
  return name + buffer;
}

std::vector<DigestCase> golden_digest_cases() {
  std::vector<DigestCase> cases;

  auto esnet = make_esnet_testbed();
  esnet.monitored_endpoints = {0, 1};
  esnet.sample_interval_s = 600.0;
  esnet.monitored_wan_paths = {{0, 1}, {1, 0}};
  cases.push_back({"esnet", std::move(esnet)});

  cases.push_back({"lmt", make_nersc_lmt()});

  ProductionConfig production_config;
  production_config.duration_s = 86400.0;
  auto production = make_production(production_config);
  // Monitor the busiest edge's endpoints, and the WAN paths of two heavy
  // edges that carry background cross-traffic.
  const auto& busiest = production.heavy_edges.front();
  production.monitored_endpoints = {busiest.src, busiest.dst};
  production.sample_interval_s = 300.0;
  for (const std::size_t e : {std::size_t{0}, std::size_t{4}}) {
    const auto& edge = production.heavy_edges.at(e);
    production.monitored_wan_paths.emplace_back(
        production.endpoints[edge.src].site,
        production.endpoints[edge.dst].site);
  }
  cases.push_back({"production_1d", std::move(production)});
  return cases;
}

}  // namespace xfl::sim
