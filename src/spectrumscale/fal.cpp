#include "src/spectrumscale/fal.hpp"

#include <sstream>

#include "src/common/string_util.hpp"

namespace fsmon::spectrumscale {

using common::ErrorCode;
using common::Result;
using common::Status;

std::string_view to_string(AuditEventType type) {
  switch (type) {
    case AuditEventType::kCreate: return "CREATE";
    case AuditEventType::kOpen: return "OPEN";
    case AuditEventType::kClose: return "CLOSE";
    case AuditEventType::kDestroy: return "DESTROY";
    case AuditEventType::kRename: return "RENAME";
    case AuditEventType::kRmdir: return "RMDIR";
    case AuditEventType::kMkdir: return "MKDIR";
    case AuditEventType::kXattrChange: return "XATTRCHANGE";
    case AuditEventType::kAclChange: return "ACLCHANGE";
    case AuditEventType::kGpfsAttrChange: return "GPFSATTRCHANGE";
  }
  return "?";
}

std::optional<AuditEventType> parse_audit_event_type(std::string_view text) {
  static constexpr AuditEventType kAll[] = {
      AuditEventType::kCreate,      AuditEventType::kOpen,
      AuditEventType::kClose,       AuditEventType::kDestroy,
      AuditEventType::kRename,      AuditEventType::kRmdir,
      AuditEventType::kMkdir,       AuditEventType::kXattrChange,
      AuditEventType::kAclChange,   AuditEventType::kGpfsAttrChange,
  };
  for (AuditEventType t : kAll) {
    if (to_string(t) == text) return t;
  }
  return std::nullopt;
}

namespace {

void append_json_string(std::ostringstream& os, std::string_view key,
                        std::string_view value, bool trailing_comma = true) {
  os << '"' << key << "\":\"";
  for (char c : value) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
  if (trailing_comma) os << ',';
}

/// Extract a "key":"value" or "key":number field from flat JSON.
std::optional<std::string> json_field(std::string_view json, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const auto pos = json.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  std::size_t start = pos + needle.size();
  if (start >= json.size()) return std::nullopt;
  if (json[start] == '"') {
    ++start;
    std::string out;
    for (std::size_t i = start; i < json.size(); ++i) {
      if (json[i] == '\\' && i + 1 < json.size()) {
        out.push_back(json[++i]);
      } else if (json[i] == '"') {
        return out;
      } else {
        out.push_back(json[i]);
      }
    }
    return std::nullopt;  // unterminated
  }
  std::size_t end = start;
  while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  return std::string(json.substr(start, end - start));
}

}  // namespace

std::string AuditRecord::to_json() const {
  std::ostringstream os;
  os << '{';
  os << "\"seq\":" << sequence << ',';
  append_json_string(os, "event", to_string(event));
  append_json_string(os, "clusterName", cluster);
  append_json_string(os, "nodeName", node);
  append_json_string(os, "fsName", fs_name);
  append_json_string(os, "path", path);
  if (!dest_path.empty()) append_json_string(os, "targetPath", dest_path);
  os << "\"inode\":" << inode << ',';
  os << "\"isDir\":" << (is_dir ? "true" : "false") << ',';
  os << "\"eventTimeNs\":" << timestamp.time_since_epoch().count();
  os << '}';
  return os.str();
}

Result<AuditRecord> AuditRecord::from_json(std::string_view json) {
  AuditRecord record;
  auto event_name = json_field(json, "event");
  if (!event_name) return Status(ErrorCode::kCorrupt, "audit record: missing event");
  auto type = parse_audit_event_type(*event_name);
  if (!type) return Status(ErrorCode::kCorrupt, "audit record: unknown event " + *event_name);
  record.event = *type;
  auto path = json_field(json, "path");
  if (!path) return Status(ErrorCode::kCorrupt, "audit record: missing path");
  record.path = *path;
  record.dest_path = json_field(json, "targetPath").value_or("");
  record.cluster = json_field(json, "clusterName").value_or("");
  record.node = json_field(json, "nodeName").value_or("");
  record.fs_name = json_field(json, "fsName").value_or("");
  try {
    record.sequence = std::stoull(json_field(json, "seq").value_or("0"));
    record.inode = std::stoull(json_field(json, "inode").value_or("0"));
    record.timestamp = common::TimePoint{
        common::Duration{std::stoll(json_field(json, "eventTimeNs").value_or("0"))}};
  } catch (const std::exception&) {
    return Status(ErrorCode::kCorrupt, "audit record: bad numeric field");
  }
  record.is_dir = json_field(json, "isDir").value_or("false") == "true";
  return record;
}

std::uint64_t RetentionFileset::append(AuditRecord record) {
  record.sequence = next_sequence_++;
  records_.push_back(std::move(record));
  return records_.back().sequence;
}

std::vector<AuditRecord> RetentionFileset::read(std::uint64_t after,
                                                std::size_t max_records) const {
  std::vector<AuditRecord> out;
  for (const auto& record : records_) {
    if (record.sequence <= after) continue;
    out.push_back(record);
    if (out.size() >= max_records) break;
  }
  return out;
}

std::size_t RetentionFileset::expire() {
  const auto cutoff = clock_.now() - retention_;
  std::size_t dropped = 0;
  while (!records_.empty() && records_.front().timestamp < cutoff) {
    records_.pop_front();
    ++dropped;
  }
  return dropped;
}

GpfsCluster::GpfsCluster(GpfsClusterOptions options, common::Clock& clock)
    : options_(std::move(options)),
      clock_(clock),
      fileset_(clock, options_.retention_period) {}

bool GpfsCluster::exists(const std::string& path) const {
  return entries_.count(common::normalize_path(path)) != 0;
}

Status GpfsCluster::emit(AuditEventType type, const std::string& path,
                         const std::string& dest) {
  AuditRecord record;
  record.event = type;
  record.cluster = options_.cluster_name;
  record.fs_name = options_.fs_name;
  record.path = path;
  record.dest_path = dest;
  record.timestamp = clock_.now();
  auto it = entries_.find(dest.empty() ? path : dest);
  if (it != entries_.end()) {
    record.inode = it->second.inode;
    record.is_dir = it->second.is_dir;
  }
  // Locally generated events go out via the generating node.
  const std::uint32_t node = next_node_;
  next_node_ = (next_node_ + 1) % options_.node_count;
  record.node = "protocol-node-" + std::to_string(node);
  queue_.push(record.to_json());
  return Status::ok();
}

Status GpfsCluster::create(const std::string& path) {
  const std::string norm = common::normalize_path(path);
  if (entries_.count(norm) != 0) return Status(ErrorCode::kAlreadyExists, norm);
  entries_[norm] = Entry{false, next_inode_++};
  return emit(AuditEventType::kCreate, norm);
}

Status GpfsCluster::mkdir(const std::string& path) {
  const std::string norm = common::normalize_path(path);
  if (entries_.count(norm) != 0) return Status(ErrorCode::kAlreadyExists, norm);
  entries_[norm] = Entry{true, next_inode_++};
  return emit(AuditEventType::kMkdir, norm);
}

Status GpfsCluster::open(const std::string& path) {
  const std::string norm = common::normalize_path(path);
  if (entries_.count(norm) == 0) return Status(ErrorCode::kNotFound, norm);
  return emit(AuditEventType::kOpen, norm);
}

Status GpfsCluster::close(const std::string& path) {
  const std::string norm = common::normalize_path(path);
  if (entries_.count(norm) == 0) return Status(ErrorCode::kNotFound, norm);
  return emit(AuditEventType::kClose, norm);
}

Status GpfsCluster::write(const std::string& path) {
  // FAL has no per-write event; modifications surface as CLOSE after a
  // writing open. Model the open+close pair directly.
  if (auto s = open(path); !s.is_ok()) return s;
  return close(path);
}

Status GpfsCluster::unlink(const std::string& path) {
  const std::string norm = common::normalize_path(path);
  auto it = entries_.find(norm);
  if (it == entries_.end()) return Status(ErrorCode::kNotFound, norm);
  if (it->second.is_dir) return Status(ErrorCode::kIsADirectory, norm);
  auto status = emit(AuditEventType::kDestroy, norm);
  entries_.erase(it);
  return status;
}

Status GpfsCluster::rmdir(const std::string& path) {
  const std::string norm = common::normalize_path(path);
  auto it = entries_.find(norm);
  if (it == entries_.end()) return Status(ErrorCode::kNotFound, norm);
  if (!it->second.is_dir) return Status(ErrorCode::kNotADirectory, norm);
  auto status = emit(AuditEventType::kRmdir, norm);
  entries_.erase(it);
  return status;
}

Status GpfsCluster::rename(const std::string& from, const std::string& to) {
  const std::string src = common::normalize_path(from);
  const std::string dst = common::normalize_path(to);
  auto it = entries_.find(src);
  if (it == entries_.end()) return Status(ErrorCode::kNotFound, src);
  if (entries_.count(dst) != 0) return Status(ErrorCode::kAlreadyExists, dst);
  Entry entry = it->second;
  entries_.erase(it);
  entries_[dst] = entry;
  return emit(AuditEventType::kRename, src, dst);
}

Status GpfsCluster::set_xattr(const std::string& path) {
  const std::string norm = common::normalize_path(path);
  if (entries_.count(norm) == 0) return Status(ErrorCode::kNotFound, norm);
  return emit(AuditEventType::kXattrChange, norm);
}

Status GpfsCluster::set_acl(const std::string& path) {
  const std::string norm = common::normalize_path(path);
  if (entries_.count(norm) == 0) return Status(ErrorCode::kNotFound, norm);
  return emit(AuditEventType::kAclChange, norm);
}

std::size_t GpfsCluster::pump() {
  std::size_t pumped = 0;
  while (auto json = queue_.try_pop()) {
    auto record = AuditRecord::from_json(*json);
    if (record) {
      fileset_.append(std::move(record).take());
      ++pumped;
    }
  }
  return pumped;
}

}  // namespace fsmon::spectrumscale
