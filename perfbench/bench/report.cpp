#include "report.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <thread>

#include "util/bench_report.h"
#include "util/json.h"
#include "util/stats.h"

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

// Every digit of a double, so repeated runs never read identically by
// accident of rounding.
std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::check(const std::string& name, std::int64_t items,
                   std::int64_t failures) {
  checks_.push_back({name, items, failures});
}

void Report::attempts(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::note(const std::string& line) { notes_.push_back(line); }

bool Report::correct() const {
  if (attempted_ < 1) return false;
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.failures == 0; });
}

int Report::finish(const RunContext& ctx) const {
  std::printf(
      "fingerprint {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"smoke\":%d,\"nproc\":%u,\"cpu\":\"%s\","
      "\"git_revision\":\"%s\",\"build\":\"optimised,NDEBUG\"}\n",
      ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
      ctx.seconds, ctx.trace ? 1 : 0, ctx.smoke ? 1 : 0,
      std::thread::hardware_concurrency(),
      cogradio::json_escape(cpu_model()).c_str(),
      cogradio::json_escape(cogradio::git_revision()).c_str());
  for (const std::string& line : notes_) std::printf("note %s\n", line.c_str());
  for (const Check& c : checks_)
    std::printf("check %s: %s (%lld items, %lld failed)\n", c.name.c_str(),
                c.failures == 0 ? "ok" : "FAILED",
                static_cast<long long>(c.items),
                static_cast<long long>(c.failures));
  const double failed_frac =
      attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 1.0;
  std::printf("metric failed_frac = %s frac (%lld of %lld attempted)\n",
              number(failed_frac).c_str(), static_cast<long long>(failed_),
              static_cast<long long>(attempted_));
  for (const Metric& m : metrics_)
    std::printf("metric %s = %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());

  std::string json = std::string("{\"correct\": ") +
                     (correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " +
            number(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

void emit_end_to_end(Report& r, const EndToEnd& m) {
  r.metric("trials_per_s", m.trials_per_s, "1/s");
  r.metric("node_slots_per_s", m.node_slots_per_s, "1/s");
  r.metric("active_node_slots_per_s", m.active_node_slots_per_s, "1/s");
  r.metric("job_latency_ms_p50", m.job_latency_ms_p50, "ms");
  r.metric("job_latency_ms_p99", m.job_latency_ms_p99, "ms");
  r.metric("setup_s", m.setup_s, "s");
  r.metric("peak_rss_mb", m.peak_rss_mb, "MB");
}

void emit_per_layer(Report& r, const PerLayer& m) {
  r.metric("sweep.efficiency", m.sweep_efficiency, "ratio");
  r.metric("sweep.tail_idle_frac", m.sweep_tail_idle_frac, "frac");
  r.metric("assignment.build_ms", m.assignment_build_ms, "ms");
  r.metric("assignment.begin_slot_us", m.assignment_begin_slot_us, "us");
  r.metric("assignment.share", m.assignment_share, "frac");
  r.metric("cogcast.act_ns", m.cogcast_act_ns, "ns");
  r.metric("cogcast.feedback_ns", m.cogcast_feedback_ns, "ns");
  r.metric("cogcomp.act_ns", m.cogcomp_act_ns, "ns");
  r.metric("cogcomp.feedback_ns", m.cogcomp_feedback_ns, "ns");
  r.metric("network.collect_ns", m.network_collect_ns, "ns");
  r.metric("network.resolve_ns", m.network_resolve_ns, "ns");
  r.metric("network.feedback_ns", m.network_feedback_ns, "ns");
  r.metric("network.active_frac", m.network_active_frac, "frac");
  r.metric("network.success_ratio", m.network_success_ratio, "ratio");
  r.metric("network.deliveries_per_slot", m.network_deliveries_per_slot,
           "count");
  r.metric("network.collisions_per_slot", m.network_collisions_per_slot,
           "count");
  r.metric("checkpoint.count_per_job", m.checkpoint_count_per_job, "count");
  r.metric("checkpoint.bytes_per_job", m.checkpoint_bytes_per_job, "B");
  r.metric("supervisor.epochs_per_job", m.supervisor_epochs_per_job, "count");
  r.metric("checkpoint.overhead_ms", m.checkpoint_overhead_ms, "ms");
  r.metric("journal.append_ms_p50", m.journal_append_ms_p50, "ms");
  r.metric("journal.append_ms_p99", m.journal_append_ms_p99, "ms");
  r.metric("journal.records_per_job", m.journal_records_per_job, "count");
  r.metric("journal.bytes_per_job", m.journal_bytes_per_job, "B");
  r.metric("server.admit_ms_p50", m.server_admit_ms_p50, "ms");
  r.metric("server.run_ms_p50", m.server_run_ms_p50, "ms");
  r.metric("server.queue_wait_ms_p50", m.server_queue_wait_ms_p50, "ms");
  r.metric("server.queue_wait_ms_p99", m.server_queue_wait_ms_p99, "ms");
  r.metric("protocol.codec_us_per_job", m.protocol_codec_us_per_job, "us");
  r.metric("loadgen.lag_ms_p99", m.loadgen_lag_ms_p99, "ms");
  r.metric("trace.overhead_s", m.trace_overhead_s, "s");
}

double quantile(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : cogradio::percentile(values, q);
}

double windowed_quantile(const std::vector<double>& values, double q) {
  const std::size_t n = values.size();
  const auto w = static_cast<std::size_t>(kWindows);
  if (n < w) return quantile(values, q);
  std::vector<double> parts;
  for (std::size_t i = 0; i < w; ++i)
    parts.push_back(cogradio::percentile(
        std::span<const double>(values).subspan(n * i / w,
                                                n * (i + 1) / w - n * i / w),
        q));
  return quantile(parts, 0.5);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0.0;
}

}  // namespace perfbench
