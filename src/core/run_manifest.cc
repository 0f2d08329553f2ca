#include "core/run_manifest.h"

#include <cstdio>
#include <sstream>

#include "util/file_io.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/monitor.h"
#include "util/trace.h"
#include "util/version.h"

namespace mysawh::core {

namespace {

std::string Millis(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

}  // namespace

std::string BuildRunManifestJson(const StudyConfig& config,
                                 const StudyResult& result) {
  std::ostringstream os;
  os << "{";
  os << "\"schema\":\"mysawh-run-manifest v1\",";
  os << "\"git_describe\":\"" << JsonEscape(GitDescribe()) << "\",";
  os << "\"fingerprint\":\"" << JsonEscape(StudyFingerprint(config)) << "\",";
  os << "\"seed\":" << config.cohort.seed << ",";
  os << "\"eval_seed\":" << config.protocol.seed << ",";
  os << "\"model_family\":\"" << JsonEscape(ModelFamilyName(config.model_family))
     << "\",";
  os << "\"cells\":{";
  bool first = true;
  for (const auto& [key, timing] : result.timings) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(StudyCellName(key)) << "\":{"
       << "\"wall_ms\":" << Millis(timing.wall_ms) << ","
       << "\"cpu_ms\":" << Millis(timing.cpu_ms) << ","
       << "\"resumed\":" << (timing.resumed ? "true" : "false") << "}";
  }
  os << "},";
  os << "\"data_quality\":{";
  first = true;
  for (const auto& [key, profile] : result.profiles) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(StudyCellName(key))
       << "\":" << DataQualityJson(profile);
  }
  os << "},";
  os << "\"drift\":{";
  first = true;
  for (const auto& [key, json] : result.drift_jsons) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(StudyCellName(key)) << "\":" << json;
  }
  os << "},";
  os << "\"calibration\":{";
  first = true;
  for (const auto& [key, json] : result.calibration_jsons) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(StudyCellName(key)) << "\":" << json;
  }
  os << "},";
  os << "\"metrics\":" << MetricsRegistry::Global().SnapshotJson();
  // Optional live-observability blocks: the study's closing heartbeat when
  // a monitor is running, and the per-span cost table when this run traced
  // with cost attribution. Plain runs omit both, keeping the manifest
  // byte-stable for the pre-monitor pipeline.
  if (Monitor* monitor = Monitor::Current()) {
    std::string status = monitor->BuildHeartbeatJson(/*final_heartbeat=*/true);
    while (!status.empty() &&
           (status.back() == '\n' || status.back() == '\r')) {
      status.pop_back();
    }
    os << ",\"final_status\":" << status;
  }
  if (TracingEnabled() && CostAttributionEnabled()) {
    const std::string costs = Tracer::Global().CostTableJson(/*top_n=*/10);
    if (!costs.empty()) os << ",\"span_costs\":" << costs;
  }
  os << "}";
  return os.str();
}

Status WriteRunManifest(const std::string& path, const StudyConfig& config,
                        const StudyResult& result) {
  return WriteFileAtomic(path, BuildRunManifestJson(config, result) + "\n",
                         "manifest_write");
}

}  // namespace mysawh::core
