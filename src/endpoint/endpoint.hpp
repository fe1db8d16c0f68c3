// Endpoint (data transfer node) model. An endpoint lives at a site, has a
// NIC, CPU capacity, and a storage system, and is either a Globus Connect
// Server (GCS: institutional DTN) or Globus Connect Personal (GCP: laptop/
// workstation) deployment — the two endpoint types of Table 4.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/site.hpp"
#include "storage/disk.hpp"

namespace xfl::endpoint {

using EndpointId = std::uint32_t;

/// Endpoint deployment type (Table 4).
enum class EndpointType : std::uint8_t {
  kServer,    ///< Globus Connect Server (GCS)
  kPersonal,  ///< Globus Connect Personal (GCP)
};

/// Short string form: "GCS" / "GCP".
const char* to_string(EndpointType type);

/// Static description of one endpoint.
struct EndpointSpec {
  std::string name;
  net::SiteId site = 0;
  EndpointType type = EndpointType::kServer;
  double nic_in_Bps = 1.25e9;   ///< 10 Gb/s default.
  double nic_out_Bps = 1.25e9;
  /// CPU throughput budget for GridFTP data processing (checksumming,
  /// TLS, copies), expressed as bytes/s the endpoint can push when all
  /// cores work on transfers.
  double cpu_Bps = 2.5e9;
  storage::DiskSpec disk;

  bool valid() const {
    return !name.empty() && nic_in_Bps > 0.0 && nic_out_Bps > 0.0 &&
           cpu_Bps > 0.0 && disk.valid();
  }
};

/// Catalogue of endpoints with name lookup.
class EndpointCatalog {
 public:
  EndpointId add(EndpointSpec spec);
  const EndpointSpec& operator[](EndpointId id) const;
  std::size_t size() const { return endpoints_.size(); }
  bool find(const std::string& name, EndpointId& out) const;

 private:
  std::vector<EndpointSpec> endpoints_;
};

/// CPU efficiency as a function of the number of concurrently active
/// GridFTP processes at the endpoint. Throughput rises with more processes
/// until scheduling/context-switch overhead erodes it — the rise-then-fall
/// shape the paper fits with a Weibull curve (Fig. 4). Returns a factor in
/// (0, 1] that scales `cpu_Bps`. `knee` is the process count at which
/// efficiency is halved: production DTNs tolerate large process counts, so
/// the simulator's default of 128 produces Fig. 4's fall-off without
/// letting transient concurrency collapse the endpoint entirely.
/// Precondition: active_processes >= 0.
double cpu_efficiency(double active_processes, double knee = 128.0);

/// Convenience endpoint builders matching deployment classes.
EndpointSpec make_dtn(std::string name, net::SiteId site,
                      double nic_gbps = 10.0);
EndpointSpec make_personal(std::string name, net::SiteId site,
                           double nic_gbps = 1.0);

}  // namespace xfl::endpoint
