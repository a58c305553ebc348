// IBM Spectrum Scale (GPFS) File Audit Logging substrate.
//
// The paper argues FSMonitor extends beyond Lustre to any distributed
// store with a metadata catalog: "Spectrum Scale File Audit Logging
// takes locally generated file system events and puts them on a
// multi-node message queue from which they are consumed and written to
// a retention enabled fileset. Therefore, FSMonitor can be extended to
// build a scalable monitoring solution for Spectrum Scale" (§II-B2).
//
// This module simulates exactly that pipeline: protocol nodes generate
// JSON audit records for local operations, push them onto the
// multi-node message queue (every node fans in to one bounded queue), and a
// consumer writes them to the retention-enabled fileset, which retains
// records for a configurable period and serves incremental reads — the
// surface the Spectrum Scale DSI consumes.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bounded_queue.hpp"
#include "src/common/clock.hpp"
#include "src/common/status.hpp"

namespace fsmon::spectrumscale {

/// Spectrum Scale FAL event types (the JSON "event" field).
enum class AuditEventType : std::uint8_t {
  kCreate,
  kOpen,
  kClose,
  kDestroy,  ///< FAL's name for file deletion.
  kRename,
  kRmdir,
  kMkdir,  ///< Reported as CREATE of a directory in FAL; kept distinct here.
  kXattrChange,
  kAclChange,
  kGpfsAttrChange,
};

std::string_view to_string(AuditEventType type);
std::optional<AuditEventType> parse_audit_event_type(std::string_view text);

/// One File-Audit-Logging record (rendered as JSON in the fileset).
struct AuditRecord {
  std::uint64_t sequence = 0;  ///< Assigned by the retention fileset.
  AuditEventType event = AuditEventType::kCreate;
  std::string cluster;
  std::string node;       ///< Protocol node that generated the event.
  std::string fs_name;
  std::string path;
  std::string dest_path;  ///< RENAME only.
  std::uint64_t inode = 0;
  bool is_dir = false;
  common::TimePoint timestamp{};

  /// Render in FAL's JSON shape.
  std::string to_json() const;

  /// Parse a record produced by to_json(); kCorrupt on malformed input.
  static common::Result<AuditRecord> from_json(std::string_view json);
};

/// The retention-enabled fileset: an append-only log of audit records
/// with sequence numbers, incremental reads, and age-based expiry.
class RetentionFileset {
 public:
  RetentionFileset(common::Clock& clock, common::Duration retention_period)
      : clock_(clock), retention_(retention_period) {}

  /// Append one record; assigns and returns its sequence number.
  std::uint64_t append(AuditRecord record);

  /// Records with sequence > after, up to max_records.
  std::vector<AuditRecord> read(std::uint64_t after, std::size_t max_records) const;

  /// Drop records older than the retention period; returns count dropped.
  std::size_t expire();

  std::uint64_t last_sequence() const { return next_sequence_ - 1; }
  std::size_t retained() const { return records_.size(); }

 private:
  common::Clock& clock_;
  common::Duration retention_;
  std::deque<AuditRecord> records_;
  std::uint64_t next_sequence_ = 1;
};

struct GpfsClusterOptions {
  std::string cluster_name = "gpfs-cluster";
  std::string fs_name = "gpfs0";
  std::uint32_t node_count = 3;
  common::Duration retention_period = std::chrono::hours(24);
};

/// The simulated cluster: file operations routed round-robin over
/// protocol nodes; each node pushes audit records onto the message
/// queue; a built-in sink drains the queue into the retention fileset
/// (the paper's FAL pipeline).
class GpfsCluster {
 public:
  GpfsCluster(GpfsClusterOptions options, common::Clock& clock);

  // Client operations. Each successful op emits one audit record (two
  // publishes for rename: FAL reports a single RENAME record with both
  // paths, which we follow).
  common::Status create(const std::string& path);
  common::Status mkdir(const std::string& path);
  common::Status open(const std::string& path);
  common::Status close(const std::string& path);
  common::Status write(const std::string& path);  ///< emits CLOSE-on-write semantics via close()
  common::Status unlink(const std::string& path);
  common::Status rmdir(const std::string& path);
  common::Status rename(const std::string& from, const std::string& to);
  common::Status set_xattr(const std::string& path);
  common::Status set_acl(const std::string& path);

  /// Pump queued audit records from the message queue into the retention
  /// fileset (in deployment this runs continuously on sink nodes).
  std::size_t pump();

  RetentionFileset& fileset() { return fileset_; }
  const GpfsClusterOptions& options() const { return options_; }
  std::uint32_t node_count() const { return options_.node_count; }
  bool exists(const std::string& path) const;

 private:
  struct Entry {
    bool is_dir = false;
    std::uint64_t inode = 0;
  };

  common::Status emit(AuditEventType type, const std::string& path,
                      const std::string& dest = {});

  GpfsClusterOptions options_;
  common::Clock& clock_;
  std::map<std::string, Entry> entries_;
  std::uint64_t next_inode_ = 1;
  std::uint32_t next_node_ = 0;
  /// The multi-node message queue; pump() is its sink.
  common::BoundedQueue<std::string> queue_{1 << 16};
  RetentionFileset fileset_;
};

}  // namespace fsmon::spectrumscale
