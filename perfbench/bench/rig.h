// Trials, and the traced rebuild that splits a trial's time by layer.
//
// A trial is one CogCast or CogComp run: a sweep trial, or the first
// supervised epoch of a serve job. run_trial goes through the public
// runners (run_cogcast / run_cogcomp) untouched. run_traced_trial rebuilds
// the same run from the same seeder splits, wraps every node in a timing
// Protocol decorator and the assignment in a timing ChannelAssignment
// decorator, and steps it with Network::step — so the traced run must
// reproduce the untraced one slot for slot, and the caller checks that it
// does. Nothing inside the library is instrumented: every span starts and
// ends at a call into a public interface.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "sim/trace.h"
#include "sim/types.h"

namespace perfbench {

enum class Proto { CogCast, CogComp };

struct TrialSpec {
  Proto proto = Proto::CogCast;
  std::string pattern;  // make_assignment pattern name
  int n = 0;
  int c = 0;
  int k = 0;
  std::uint64_t assignment_seed = 0;
  std::uint64_t run_seed = 0;     // CogCastRunConfig / CogCompRunConfig seed
  std::uint64_t values_seed = 0;  // CogComp inputs (make_values)
};

struct TrialOutcome {
  // CogCast: every node informed before the cap. CogComp: the source
  // holds a full-count aggregate and every node terminated.
  bool completed = false;
  // CogCast: a valid distribution tree. CogComp: result == expected.
  // Meaningful only for completed trials.
  bool correct = false;
  cogradio::TraceStats stats;  // stats.slots is the slot count
  // CogCast: a digest of every node's informed slot and parent. Which
  // broadcaster wins a channel leaves the counters alone when every
  // broadcaster carries the same payload, but it moves the tree.
  std::uint64_t tree_digest = 0;
  bool ok() const { return completed && correct; }
  bool operator==(const TrialOutcome&) const = default;
};

// Node-slots in which a node broadcast or listened.
std::int64_t active_node_slots(const cogradio::TraceStats& stats, int n);

// The trial through run_cogcast / run_cogcomp.
TrialOutcome run_trial(const TrialSpec& spec);

// Builds the trial's assignment, nodes and engine without stepping a slot
// — the set-up a user pays before the first slot — and returns its seconds.
double time_trial_build(const TrialSpec& spec);

// One timed interval at a layer boundary. Spans of one trial or job share
// `trace`. Per-call protocol spans (one per on_slot / on_feedback call)
// are folded into their phase span as a total and a count instead of being
// stored one by one; a span's self time is its duration minus `folded`
// minus the durations of its stored children.
struct Span {
  std::int64_t trace = 0;
  int parent = -1;  // index into Tracer::spans; -1 = root
  const char* name = "";
  double start = 0.0;  // monotonic seconds
  double end = 0.0;
  double folded = 0.0;
  std::int64_t calls = 0;
};

class Tracer {
 public:
  int add(const Span& span);
  Span& at(int index) { return spans_[static_cast<std::size_t>(index)]; }
  const std::vector<Span>& spans() const { return spans_; }
  // Writes the spans as JSON lines, times relative to `origin`.
  bool write(const std::string& path, double origin) const;

 private:
  std::vector<Span> spans_;
};

// Rebuilds `spec` with timing decorators; every 4th slot is timed call by
// call.
TrialOutcome run_traced_trial(const TrialSpec& spec, Tracer& tracer,
                              std::int64_t trace_id);

// Per-layer figures over every traced trial in `tracer`.
struct LayerMetrics {
  double assignment_build_ms = 0.0;     // make_assignment, per trial
  double assignment_begin_slot_us = 0.0;  // per slot
  double assignment_share = 0.0;        // begin_slot time / step time
  double protocol_act_ns = 0.0;         // per on_slot call (self time)
  double protocol_feedback_ns = 0.0;    // per on_feedback call (self time)
  double network_collect_ns = 0.0;      // engine self time, per node-slot
  double network_resolve_ns = 0.0;
  double network_feedback_ns = 0.0;
};
LayerMetrics layer_metrics(const Tracer& tracer);

// Adds the counters the engine-count metrics read.
void accumulate(cogradio::TraceStats& total, const cogradio::TraceStats& s);

// The deterministic engine counts (network.active_frac, success_ratio,
// deliveries_per_slot, collisions_per_slot) of summed stats `total`, with
// `active` of `node_slots` node-slots active.
void fill_engine_counts(PerLayer& m, const cogradio::TraceStats& total,
                        std::int64_t active, std::int64_t node_slots);

}  // namespace perfbench
