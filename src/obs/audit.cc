// Copyright 2026 The QPSeeker Authors

#include "obs/audit.h"

#include <cstdio>
#include <memory>

#include "util/clock.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace qps {
namespace obs {

std::string RenderAuditJson(const AuditRecord& record, double ts_ms) {
  char hash_hex[24];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                static_cast<unsigned long long>(record.query_hash));
  std::string out = "{\"ts_ms\":" + JsonNumber(ts_ms);
  out += ",\"query_hash\":\"" + std::string(hash_hex) + "\"";
  out += ",\"backend\":\"" + JsonEscape(record.backend) + "\"";
  if (!record.tenant.empty()) {
    out += ",\"tenant\":\"" + JsonEscape(record.tenant) + "\"";
  }
  out += ",\"stage\":\"" + JsonEscape(record.stage) + "\"";
  out += ",\"outcome\":\"" + JsonEscape(record.outcome) + "\"";
  out += ",\"deadline_hit\":";
  out += record.deadline_hit ? "true" : "false";
  out += ",\"queue_ms\":" + JsonNumber(record.queue_ms);
  out += ",\"plan_ms\":" + JsonNumber(record.plan_ms);
  out += ",\"plans_evaluated\":" + std::to_string(record.plans_evaluated);
  out += ",\"fallback\":\"" + JsonEscape(record.fallback_reason) + "\"";
  if (!record.reason.empty()) {
    out += ",\"reason\":\"" + JsonEscape(record.reason) + "\"";
  }
  out += "}";
  return out;
}

AuditLog::AuditLog(std::string path) : path_(std::move(path)) {}

StatusOr<std::unique_ptr<AuditLog>> AuditLog::Open(const std::string& path) {
  std::unique_ptr<AuditLog> log(new AuditLog(path));
  log->file_.open(path, std::ios::out | std::ios::app);
  if (!log->file_) {
    return Status::IOError("audit log: cannot open " + path);
  }
  return log;
}

void AuditLog::Append(const AuditRecord& record) {
  static metrics::Counter* const records_counter =
      metrics::Registry::Global().GetCounter("qps.obs.audit_records");
  static metrics::Counter* const errors_counter =
      metrics::Registry::Global().GetCounter("qps.obs.audit_errors");
  const std::string line =
      RenderAuditJson(record, Clock::Default()->NowMillis()) + "\n";
  std::lock_guard<std::mutex> lock(mu_);
  file_ << line;
  file_.flush();
  if (file_) {
    written_ += 1;
    records_counter->Increment();
  } else {
    errors_counter->Increment();
    file_.clear();  // keep trying on later appends
  }
}

int64_t AuditLog::records_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_;
}

}  // namespace obs
}  // namespace qps
