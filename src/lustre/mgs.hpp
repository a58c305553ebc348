// Management Server: stores the file-system configuration and the
// component registry (paper Section II-B1). The scalable monitor's
// aggregator runs on the MGS and discovers the MDS endpoints through it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.hpp"

namespace fsmon::lustre {

/// One registered service endpoint (an MDS, OSS, or monitor component).
struct ServiceRecord {
  std::string name;      ///< e.g. "MDS0", "collector-2"
  std::string kind;      ///< "mds", "oss", "collector", "aggregator", ...
  std::string endpoint;  ///< transport endpoint, "<carrier>://<name>"
};

class Mgs {
 public:
  explicit Mgs(std::string fsname) : fsname_(std::move(fsname)) {}

  const std::string& fsname() const { return fsname_; }

  /// Persist a configuration parameter on the MGT.
  void set_param(const std::string& key, const std::string& value);
  std::optional<std::string> get_param(const std::string& key) const;

  common::Status register_service(ServiceRecord record);
  common::Status deregister_service(const std::string& name);

  std::vector<ServiceRecord> services_of_kind(const std::string& kind) const;
  std::size_t service_count() const { return services_.size(); }

 private:
  std::string fsname_;
  std::map<std::string, std::string> params_;
  std::map<std::string, ServiceRecord> services_;
};

}  // namespace fsmon::lustre
