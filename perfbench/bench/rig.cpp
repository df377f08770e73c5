#include "rig.h"

#include <cstdio>
#include <memory>

#include "core/runtime.h"
#include "sim/checkpoint.h"
#include "util/bench_report.h"

namespace perfbench {

namespace cg = cogradio;

namespace {

constexpr int kSampleEvery = 4;  // slots per call-by-call timed slot

// Phase boundaries of one sampled slot, filled by the decorators below.
struct SlotProbe {
  bool sampled = false;
  double begin_start = 0.0;
  double begin_end = 0.0;
  double act_first = 0.0;
  double act_last = 0.0;
  double act_total = 0.0;
  std::int64_t act_calls = 0;
  double fb_first = 0.0;
  double fb_last = 0.0;
  double fb_total = 0.0;
  std::int64_t fb_calls = 0;

  void act(double t0, double t1) {
    if (act_calls++ == 0) act_first = t0;
    act_last = t1;
    act_total += t1 - t0;
  }
  void feedback(double t0, double t1) {
    if (fb_calls++ == 0) fb_first = t0;
    fb_last = t1;
    fb_total += t1 - t0;
  }
};

class TimedProtocol final : public cg::Protocol {
 public:
  TimedProtocol(cg::Protocol& inner, SlotProbe& probe)
      : inner_(inner), probe_(probe) {}

  cg::Action on_slot(cg::Slot slot) override {
    if (!probe_.sampled) return inner_.on_slot(slot);
    const double t0 = cg::monotonic_seconds();
    cg::Action action = inner_.on_slot(slot);
    probe_.act(t0, cg::monotonic_seconds());
    return action;
  }
  void on_feedback(cg::Slot slot, const cg::SlotResult& result) override {
    if (!probe_.sampled) return inner_.on_feedback(slot, result);
    const double t0 = cg::monotonic_seconds();
    inner_.on_feedback(slot, result);
    probe_.feedback(t0, cg::monotonic_seconds());
  }
  bool done() const override { return inner_.done(); }

 private:
  cg::Protocol& inner_;
  SlotProbe& probe_;
};

class TimedAssignment final : public cg::ChannelAssignment {
 public:
  TimedAssignment(cg::ChannelAssignment& inner, SlotProbe& probe)
      : cg::ChannelAssignment(inner.num_nodes(), inner.channels_per_node(),
                              inner.min_overlap(), inner.total_channels()),
        inner_(inner),
        probe_(probe) {}

  bool is_dynamic() const override { return inner_.is_dynamic(); }
  void begin_slot(cg::Slot slot) override {
    if (!probe_.sampled) return inner_.begin_slot(slot);
    probe_.begin_start = cg::monotonic_seconds();
    inner_.begin_slot(slot);
    probe_.begin_end = cg::monotonic_seconds();
  }
  cg::Channel global_channel(cg::NodeId node,
                             cg::LocalLabel label) const override {
    return inner_.global_channel(node, label);
  }

 private:
  cg::ChannelAssignment& inner_;
  SlotProbe& probe_;
};

std::unique_ptr<cg::ChannelAssignment> build_assignment(const TrialSpec& spec) {
  return cg::make_assignment(spec.pattern, spec.n, spec.c, spec.k,
                             cg::LabelMode::LocalRandom,
                             cg::Rng(spec.assignment_seed));
}

cg::CogCastParams cast_params(const TrialSpec& spec) {
  return {spec.n, spec.c, spec.k, 4.0};
}

cg::CogCompParams comp_params(const TrialSpec& spec) {
  return {spec.n, spec.c, spec.k, 4.0};
}

// FNV-1a over every node's informed slot and parent, packed as 64-bit words.
std::uint64_t digest_tree(const std::vector<cg::Slot>& informed,
                          const std::vector<cg::NodeId>& parent) {
  std::string bytes;
  auto pack = [&](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) bytes.push_back(static_cast<char>(v >> (8 * b)));
  };
  for (std::size_t u = 0; u < informed.size(); ++u) {
    pack(static_cast<std::uint64_t>(informed[u]));
    pack(static_cast<std::uint64_t>(parent[u]));
  }
  return cg::fnv1a64(bytes);
}

// Nodes and engine of one trial, built with the seeder splits of
// core/runtime.cpp's run_cogcast / run_cogcomp (node u draws
// seeder.split(u), the engine seeder.split(0xFEED)). With a probe, every
// node and the assignment sit behind a timing decorator.
class Rig {
 public:
  Rig(const TrialSpec& spec, cg::ChannelAssignment& assignment,
      SlotProbe* probe)
      : spec_(spec), aggregator_(cg::AggOp::Sum) {
    cg::Rng seeder(spec.run_seed);
    std::vector<cg::Protocol*> protocols;
    protocols.reserve(static_cast<std::size_t>(spec.n));
    if (spec.proto == Proto::CogCast) {
      cg::Message payload;
      payload.type = cg::MessageType::Data;
      payload.a = 42;
      for (cg::NodeId u = 0; u < spec.n; ++u) {
        cast_.push_back(std::make_unique<cg::CogCastNode>(
            u, spec.c, u == 0, payload,
            seeder.split(static_cast<std::uint64_t>(u)), 0));
        protocols.push_back(cast_.back().get());
      }
    } else {
      values_ = cg::make_values(spec.n, spec.values_seed);
      const cg::CogCompParams params = comp_params(spec);
      for (cg::NodeId u = 0; u < spec.n; ++u) {
        comp_.push_back(std::make_unique<cg::CogCompNode>(
            u, params, u == 0, values_[static_cast<std::size_t>(u)],
            aggregator_, seeder.split(static_cast<std::uint64_t>(u))));
        protocols.push_back(comp_.back().get());
      }
    }
    cg::ChannelAssignment* engine_assignment = &assignment;
    if (probe != nullptr) {
      timed_assignment_ = std::make_unique<TimedAssignment>(assignment, *probe);
      engine_assignment = timed_assignment_.get();
      for (cg::Protocol*& p : protocols) {
        timed_.push_back(std::make_unique<TimedProtocol>(*p, *probe));
        p = timed_.back().get();
      }
    }
    cg::NetworkOptions net;
    net.seed = seeder.split(0xFEEDu)();
    network_ = std::make_unique<cg::Network>(*engine_assignment,
                                             std::move(protocols), net);
  }

  cg::Network& network() { return *network_; }

  // The slot cap run_cogcast / run_cogcomp apply by default.
  cg::Slot cap() const {
    return spec_.proto == Proto::CogCast ? 8 * cast_params(spec_).horizon()
                                         : comp_params(spec_).max_slots();
  }

  TrialOutcome outcome() const {
    TrialOutcome out;
    out.stats = network_->stats();
    if (spec_.proto == Proto::CogCast) {
      std::vector<cg::Slot> informed;
      std::vector<cg::NodeId> parent;
      bool all = true;
      for (const auto& node : cast_) {
        all = all && node->informed();
        informed.push_back(node->informed_slot());
        parent.push_back(node->parent());
      }
      out.completed = all;
      out.correct = cg::valid_distribution_tree(0, informed, parent);
      out.tree_digest = digest_tree(informed, parent);
    } else {
      const cg::CogCompNode& source = *comp_.front();
      out.completed = source.complete() && network_->all_done();
      out.correct = aggregator_.result(source.accumulated()) ==
                    aggregator_.expected(values_);
    }
    return out;
  }

 private:
  TrialSpec spec_;
  cg::Aggregator aggregator_;
  std::vector<cg::Value> values_;
  std::vector<std::unique_ptr<cg::CogCastNode>> cast_;
  std::vector<std::unique_ptr<cg::CogCompNode>> comp_;
  std::unique_ptr<TimedAssignment> timed_assignment_;
  std::vector<std::unique_ptr<TimedProtocol>> timed_;
  std::unique_ptr<cg::Network> network_;
};

double seconds(const Span& s) { return s.end - s.start; }

// One monotonic_seconds() read, the bias every timed call carries: a
// call's measured interval holds one read, and the enclosing phase span
// one more read per call.
double clock_read_cost() {
  static const double cost = [] {
    std::vector<double> d;
    for (int i = 0; i < 1001; ++i) {
      const double t0 = cg::monotonic_seconds();
      d.push_back(cg::monotonic_seconds() - t0);
    }
    return quantile(d, 0.5);
  }();
  return cost;
}

}  // namespace

std::int64_t active_node_slots(const cg::TraceStats& stats, int n) {
  return static_cast<std::int64_t>(n) * stats.slots - stats.idle_node_slots -
         stats.jammed_node_slots;
}

TrialOutcome run_trial(const TrialSpec& spec) {
  auto assignment = build_assignment(spec);
  TrialOutcome out;
  if (spec.proto == Proto::CogCast) {
    cg::CogCastRunConfig config;
    config.params = cast_params(spec);
    config.seed = spec.run_seed;
    const cg::BroadcastOutcome run = cg::run_cogcast(*assignment, config);
    out.completed = run.completed;
    out.correct =
        cg::valid_distribution_tree(0, run.informed_slot, run.parent);
    out.tree_digest = digest_tree(run.informed_slot, run.parent);
    out.stats = run.stats;
  } else {
    cg::CogCompRunConfig config;
    config.params = comp_params(spec);
    config.seed = spec.run_seed;
    const auto values = cg::make_values(spec.n, spec.values_seed);
    const cg::AggregationOutcome run =
        cg::run_cogcomp(*assignment, values, config);
    out.completed = run.completed;
    out.correct = run.result == run.expected;
    out.stats = run.stats;
  }
  return out;
}

double time_trial_build(const TrialSpec& spec) {
  const double t0 = cg::monotonic_seconds();
  auto assignment = build_assignment(spec);
  Rig rig(spec, *assignment, nullptr);
  return cg::monotonic_seconds() - t0;
}

int Tracer::add(const Span& span) {
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

bool Tracer::write(const std::string& path, double origin) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"trace\":%lld,\"span\":%zu,\"parent\":%d,\"name\":\"%s\","
                 "\"start\":%.9f,\"end\":%.9f,\"folded\":%.9f,\"calls\":%lld}\n",
                 static_cast<long long>(s.trace), i, s.parent, s.name,
                 s.start - origin, s.end - origin, s.folded,
                 static_cast<long long>(s.calls));
  }
  return std::fclose(out) == 0;
}

TrialOutcome run_traced_trial(const TrialSpec& spec, Tracer& tracer,
                              std::int64_t trace_id) {
  const int trial = tracer.add({trace_id, -1, "trial", cg::monotonic_seconds()});
  const int build = tracer.add(
      {trace_id, trial, "assignment.build", cg::monotonic_seconds()});
  auto assignment = build_assignment(spec);
  tracer.at(build).end = cg::monotonic_seconds();

  SlotProbe probe;
  const int setup =
      tracer.add({trace_id, trial, "trial.build", cg::monotonic_seconds()});
  Rig rig(spec, *assignment, &probe);
  tracer.at(setup).end = cg::monotonic_seconds();

  cg::Network& network = rig.network();
  const cg::Slot cap = rig.cap();
  const int run =
      tracer.add({trace_id, trial, "trial.run", cg::monotonic_seconds()});
  while (!network.all_done() && network.now() < cap) {
    probe = SlotProbe{};
    probe.sampled = (network.now() + 1) % kSampleEvery == 0;
    if (!probe.sampled) {
      network.step();
      continue;
    }
    const double t0 = cg::monotonic_seconds();
    network.step();
    const double t1 = cg::monotonic_seconds();
    const int step = tracer.add({trace_id, run, "network.step", t0, t1});
    tracer.add({trace_id, step, "assignment.begin_slot", probe.begin_start,
                probe.begin_end});
    tracer.add({trace_id, step, "network.collect", probe.act_first,
                probe.act_last, probe.act_total, probe.act_calls});
    tracer.add({trace_id, step, "network.resolve", probe.act_last,
                probe.fb_first});
    tracer.add({trace_id, step, "network.feedback", probe.fb_first,
                probe.fb_last, probe.fb_total, probe.fb_calls});
  }
  const double end = cg::monotonic_seconds();
  tracer.at(run).end = end;
  tracer.at(trial).end = end;
  return rig.outcome();
}

LayerMetrics layer_metrics(const Tracer& tracer) {
  double build = 0.0, begin = 0.0, step = 0.0;
  double collect = 0.0, act = 0.0, resolve = 0.0, feedback = 0.0, fb = 0.0;
  std::int64_t builds = 0, steps = 0, act_calls = 0, fb_calls = 0;
  const std::string kBuild = "assignment.build", kBegin = "assignment.begin_slot",
                    kStep = "network.step", kCollect = "network.collect",
                    kResolve = "network.resolve", kFeedback = "network.feedback";
  for (const Span& s : tracer.spans()) {
    if (s.name == kBuild) {
      build += seconds(s);
      ++builds;
    } else if (s.name == kBegin) {
      begin += seconds(s);
    } else if (s.name == kStep) {
      step += seconds(s);
      ++steps;
    } else if (s.name == kCollect) {
      collect += seconds(s) - s.folded;
      act += s.folded;
      act_calls += s.calls;
    } else if (s.name == kResolve) {
      resolve += seconds(s);
    } else if (s.name == kFeedback) {
      feedback += seconds(s) - s.folded;
      fb += s.folded;
      fb_calls += s.calls;
    }
  }
  // Take the timer's own reads out of the protocol and engine figures.
  const double clock = clock_read_cost();
  act -= clock * static_cast<double>(act_calls);
  collect -= clock * static_cast<double>(act_calls);
  fb -= clock * static_cast<double>(fb_calls);
  feedback -= clock * static_cast<double>(fb_calls);
  LayerMetrics m;
  if (builds > 0) m.assignment_build_ms = build / builds * 1e3;
  if (steps > 0) m.assignment_begin_slot_us = begin / steps * 1e6;
  if (step > 0.0) m.assignment_share = begin / step;
  if (act_calls > 0) {
    const auto node_slots = static_cast<double>(act_calls);
    m.protocol_act_ns = act / node_slots * 1e9;
    m.network_collect_ns = collect / node_slots * 1e9;
    m.network_resolve_ns = resolve / node_slots * 1e9;
    m.network_feedback_ns = feedback / node_slots * 1e9;
  }
  if (fb_calls > 0) m.protocol_feedback_ns = fb / static_cast<double>(fb_calls) * 1e9;
  return m;
}

void accumulate(cg::TraceStats& total, const cg::TraceStats& s) {
  total.slots += s.slots;
  total.broadcasts += s.broadcasts;
  total.successes += s.successes;
  total.deliveries += s.deliveries;
  total.collision_events += s.collision_events;
  total.idle_node_slots += s.idle_node_slots;
  total.jammed_node_slots += s.jammed_node_slots;
}

void fill_engine_counts(PerLayer& m, const cg::TraceStats& total,
                        std::int64_t active, std::int64_t node_slots) {
  if (node_slots > 0)
    m.network_active_frac =
        static_cast<double>(active) / static_cast<double>(node_slots);
  if (total.broadcasts > 0)
    m.network_success_ratio = static_cast<double>(total.successes) /
                              static_cast<double>(total.broadcasts);
  if (total.slots > 0) {
    const auto slots = static_cast<double>(total.slots);
    m.network_deliveries_per_slot = static_cast<double>(total.deliveries) / slots;
    m.network_collisions_per_slot =
        static_cast<double>(total.collision_events) / slots;
  }
}

}  // namespace perfbench
