// Result reporting for the end-to-end benchmark.
//
// A run prints human-readable lines first (host/build fingerprint, one
// line per correctness check, one line per metric with its unit) and then,
// as its last stdout line, one JSON object with exactly the keys
// `correct`, `attempted`, `failed` and `metrics`. A failed correctness
// check makes the process exit nonzero.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured window of the run
  bool trace = false;     // per-layer run instead of the end-to-end run
  bool smoke = false;     // tiny preset: checks wiring, not speed
  std::string workdir;    // scratch directory inside the checkout
};

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // A correctness check over `items` items of which `failures` failed.
  void check(const std::string& name, std::int64_t items,
             std::int64_t failures);
  // The run's unit of work (a trial or a job): attempted, and how many of
  // those failed (slot cap, wrong result, shed, error frame, ...).
  void attempts(std::int64_t attempted, std::int64_t failed);
  // A free-form line printed before the result (sample counts, ...).
  void note(const std::string& line);

  bool correct() const;
  // Prints everything; returns the process exit code.
  int finish(const RunContext& ctx) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  struct Check {
    std::string name;
    std::int64_t items = 0;
    std::int64_t failures = 0;
  };
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::vector<std::string> notes_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// Every end-to-end metric, printed by every workload's untraced run.
struct EndToEnd {
  double trials_per_s = 0.0;
  double node_slots_per_s = 0.0;
  double active_node_slots_per_s = 0.0;
  double job_latency_ms_p50 = 0.0;
  double job_latency_ms_p99 = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
};
void emit_end_to_end(Report& report, const EndToEnd& m);

// Every per-layer metric of the traced run. Each workload prints all of
// them; a layer the workload never reaches (CogComp on a CogCast sweep,
// the job path outside agg_sweep) reads 0.
struct PerLayer {
  double sweep_efficiency = 0.0;       // 2-worker rate / (2 x 1-worker rate)
  double sweep_tail_idle_frac = 0.0;   // worker time idle at batch ends
  double assignment_build_ms = 0.0;    // make_assignment, per trial or job
  double assignment_begin_slot_us = 0.0;
  double assignment_share = 0.0;       // begin_slot time / step time
  double cogcast_act_ns = 0.0;         // protocol self time per node-slot
  double cogcast_feedback_ns = 0.0;
  double cogcomp_act_ns = 0.0;
  double cogcomp_feedback_ns = 0.0;
  double network_collect_ns = 0.0;     // engine self time per node-slot
  double network_resolve_ns = 0.0;
  double network_feedback_ns = 0.0;
  double network_active_frac = 0.0;    // deterministic counts
  double network_success_ratio = 0.0;
  double network_deliveries_per_slot = 0.0;
  double network_collisions_per_slot = 0.0;
  double checkpoint_count_per_job = 0.0;
  double checkpoint_bytes_per_job = 0.0;
  double supervisor_epochs_per_job = 0.0;
  double checkpoint_overhead_ms = 0.0;
  double journal_append_ms_p50 = 0.0;
  double journal_append_ms_p99 = 0.0;
  double journal_records_per_job = 0.0;
  double journal_bytes_per_job = 0.0;
  double server_admit_ms_p50 = 0.0;
  double server_run_ms_p50 = 0.0;
  double server_queue_wait_ms_p50 = 0.0;
  double server_queue_wait_ms_p99 = 0.0;
  double protocol_codec_us_per_job = 0.0;
  double loadgen_lag_ms_p99 = 0.0;
  double trace_overhead_s = 0.0;       // traced wall - untraced wall
};
void emit_per_layer(Report& report, const PerLayer& m);

// cogradio::percentile of `values` (q in [0, 1]); 0 when empty.
double quantile(const std::vector<double>& values, double q);
// Number of consecutive windows a run's samples are cut into.
inline constexpr int kWindows = 16;
// Cuts `values` (in time order) into kWindows consecutive equal parts and
// returns the median over the parts of each part's q-quantile, as the
// rates are medians over batches. A part that caught a host stall (one
// agg_sweep run on a 4-vCPU Intel Xeon VM had a p99 of 2.5x its p50) then
// moves the result no more than any other part.
double windowed_quantile(const std::vector<double>& values, double q);
// Peak resident set size of this process image, in MB (VmHWM, which,
// unlike ru_maxrss, does not carry over the parent's peak across exec).
double peak_rss_mb();

}  // namespace perfbench
