// The job path's layers: jobs through an in-process `cograd serve` daemon
// with an fsync'd job journal and a checkpoint every 64 slots.
//
// One process, four threads: the daemon's IO thread, its 2 workers, and
// the calling thread as the load generator. The generator holds 2
// unix-socket connections and alternates CogComp (n=64, c=16, k=4) and
// CogCast (n=32, c=8, k=2) jobs on `shared-core`, open-loop: every job is
// sent when due and its latency runs from when it was due. It keeps every
// `done` line and, after the load, byte-compares each against
// frame_done(id, run_job(spec)).
//
// This path is measured layer by layer only, inside agg_sweep's traced
// run. As a timed workload of its own it measured the host: over ten runs
// (seeds 101 to 110) on a 4-vCPU Intel Xeon VM, with the journal on and a
// checkpoint every 64 slots, the daemon sustained 219 to 636 jobs/s and
// its p99 latency ran 7.4 to 45 ms — spreads (IQR / median) of 0.75 and
// 1.16, wider than any bound the benchmark may set.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <thread>

#include "rig.h"
#include "serve/job.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "util/bench_report.h"
#include "util/sweep.h"
#include "workloads.h"

namespace perfbench {

namespace cg = cogradio;

namespace {

constexpr int kWorkers = 2;
constexpr int kVerifyWorkers = 4;  // after the load only
constexpr int kConnections = 2;
constexpr cg::Slot kCheckpointEvery = 64;
constexpr double kOfferedRate = 150.0;  // jobs/s
constexpr int kJobs = 300;              // 2 s of load
constexpr int kWarmupJobs = 32;
constexpr std::size_t kSampledJobs = 64;  // checkpoint / journal replay
constexpr double kDrainTimeout = 30.0;    // seconds for in-flight jobs

cg::JobSpec job_spec(std::uint64_t seed, std::int64_t index) {
  cg::JobSpec spec;
  if (index % 2 == 0) {
    spec.kind = cg::JobKind::CogComp;
    spec.n = 64;
    spec.c = 16;
    spec.k = 4;
  } else {
    spec.kind = cg::JobKind::CogCast;
    spec.n = 32;
    spec.c = 8;
    spec.k = 2;
  }
  spec.pattern = "shared-core";
  // A stream of its own, apart from the sweep trials' trial_rng(seed, t).
  spec.seed = cg::trial_rng(seed ^ 0x5e7e'0000'0000ULL,
                            static_cast<std::uint64_t>(index))();
  return spec;
}

struct JobRecord {
  cg::JobSpec spec;
  bool measured = false;  // false for the warm-up
  double due = 0.0;
  double sent = 0.0;
  double accepted = 0.0;
  double done = 0.0;
  bool finished = false;  // a done or shed frame arrived
  bool shed = false;
  std::string done_line;  // verbatim, newline included
};

// The daemon on its IO thread; stop() and join on every exit path.
class Daemon {
 public:
  explicit Daemon(const cg::ServeOptions& options) : server_(options) {
    // cograd-lint: allow(R8) the daemon's IO loop blocks in poll() for the whole run, which a ParallelSweep body may not
    io_ = std::thread([this] { server_.run(); });
  }
  ~Daemon() {
    if (io_.joinable()) join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Ends run() and waits for it; after a shutdown frame has already ended
  // the IO loop, stop() finds nothing left to cancel.
  void join() {
    server_.stop();
    io_.join();
  }

 private:
  cg::ServeServer server_;
  std::thread io_;
};

// The single-threaded load generator over kConnections connections.
class Client {
 public:
  explicit Client(const std::string& socket) {
    for (int i = 0; i < kConnections; ++i) {
      std::string error;
      cg::OwnedFd fd = cg::connect_unix(socket, &error);
      if (!fd.valid()) throw std::runtime_error("connect: " + error);
      conns_.push_back({std::move(fd), {}});
    }
  }

  std::vector<JobRecord> jobs;
  int outstanding = 0;
  std::int64_t protocol_errors = 0;
  std::int64_t transport_errors = 0;
  int byes = 0;
  std::optional<cg::JsonValue> stats;

  // Appends job `jobs.size()` and sends it; `due` is when it was due.
  void submit(std::uint64_t seed, bool measured, double due) {
    JobRecord rec;
    rec.spec = job_spec(seed, static_cast<std::int64_t>(jobs.size()));
    rec.measured = measured;
    rec.due = due;
    cg::Request request;
    request.type = cg::RequestType::Submit;
    request.id = static_cast<std::int64_t>(jobs.size());
    request.job = rec.spec;
    const Conn& conn = conns_[jobs.size() % conns_.size()];
    rec.sent = cg::monotonic_seconds();
    jobs.push_back(std::move(rec));
    if (cg::send_all(conn.fd.get(), cg::encode_request(request))) {
      ++outstanding;
    } else {
      ++transport_errors;
      jobs.back().finished = true;
    }
  }

  void request(cg::RequestType type) {
    cg::Request request;
    request.type = type;
    if (!cg::send_all(conns_.front().fd.get(), cg::encode_request(request)))
      ++transport_errors;
  }

  // Waits up to `timeout` seconds for input, then handles every complete
  // frame that arrived.
  void pump(double timeout) {
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) fds.push_back({c.fd.get(), POLLIN, 0});
    timespec ts{};
    const double t = std::max(0.0, timeout);
    ts.tv_sec = static_cast<time_t>(t);
    ts.tv_nsec = static_cast<long>((t - static_cast<double>(ts.tv_sec)) * 1e9);
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char buf[1 << 16];
      const ssize_t got = ::read(fds[i].fd, buf, sizeof(buf));
      if (got <= 0) {
        ++transport_errors;
        continue;
      }
      const double now = cg::monotonic_seconds();
      std::string& pending = conns_[i].buffer;
      pending.append(buf, static_cast<std::size_t>(got));
      std::size_t start = 0, nl;
      while ((nl = pending.find('\n', start)) != std::string::npos) {
        handle(pending.substr(start, nl - start), now);
        start = nl + 1;
      }
      pending.erase(0, start);
    }
  }

  // Pumps until `done()` holds; false on timeout or a transport error.
  template <typename Done>
  bool wait(Done&& done, double timeout) {
    const double deadline = cg::monotonic_seconds() + timeout;
    while (!done()) {
      const double left = deadline - cg::monotonic_seconds();
      if (left <= 0.0 || transport_errors > 0) return false;
      pump(std::min(left, 0.05));
    }
    return true;
  }

 private:
  struct Conn {
    cg::OwnedFd fd;
    std::string buffer;
  };
  std::vector<Conn> conns_;

  JobRecord* job_of(const cg::JsonValue& body) {
    const cg::JsonValue* id = body.find("id");
    if (id == nullptr || !id->is_number()) return nullptr;
    const double v = id->as_number();
    if (v < 0 || v >= static_cast<double>(jobs.size())) return nullptr;
    return &jobs[static_cast<std::size_t>(v)];
  }

  void handle(const std::string& line, double now) {
    const auto response = cg::parse_response(line, nullptr);
    if (!response) {
      ++protocol_errors;
      return;
    }
    const std::string& type = response->type;
    if (type == "epoch") return;
    if (type == "bye") {
      ++byes;
      return;
    }
    if (type == "stats") {
      stats = response->body;
      return;
    }
    JobRecord* job = job_of(response->body);
    if (job == nullptr || job->finished) {
      ++protocol_errors;  // error frames, unknown or repeated ids
      return;
    }
    if (type == "accepted") {
      job->accepted = now;
    } else if (type == "done" || type == "shed") {
      job->done = now;
      job->finished = true;
      job->shed = type == "shed";
      if (!job->shed) job->done_line = line + "\n";
      --outstanding;
    } else {
      ++protocol_errors;
    }
  }
};

std::int64_t stat_of(const cg::JsonValue& stats, const char* key) {
  const cg::JsonValue* v = stats.find(key);
  return v != nullptr && v->is_number() ? static_cast<std::int64_t>(v->as_number())
                                        : -1;
}

// A scratch file of this process: `dir`/serve-`name`-<pid>.
std::string scratch_path(const std::string& dir, const char* name) {
  return dir + "/serve-" + name + "-" + std::to_string(::getpid());
}

// Drives the daemon; returns every job with its frames' arrival times.
std::vector<JobRecord> drive_daemon(const RunContext& ctx, Report& report,
                                    const std::string& journal) {
  // sun_path holds only 108 bytes: the socket path is relative.
  const std::string socket =
      scratch_path(std::filesystem::relative(ctx.workdir).string(), "socket");
  if (socket.size() >= 100)
    throw std::runtime_error("socket path too long: " + socket);
  cg::ServeOptions options;
  options.unix_path = socket;
  options.workers = kWorkers;
  options.max_queue = 1 << 16;
  options.journal_path = journal;
  options.checkpoint_every = kCheckpointEvery;
  Daemon daemon(options);
  Client client(socket);

  const int warmup = ctx.smoke ? 4 : kWarmupJobs;
  for (int i = 0; i < warmup; ++i)
    client.submit(ctx.seed, false, cg::monotonic_seconds());
  if (!client.wait([&] { return client.outstanding == 0; }, kDrainTimeout))
    throw std::runtime_error("serve warm-up stalled");

  const int jobs = ctx.smoke ? 32 : kJobs;
  const double start = cg::monotonic_seconds();
  for (int j = 0; j < jobs; ++j) {
    const double due = start + j / kOfferedRate;
    for (double now = cg::monotonic_seconds(); now < due;
         now = cg::monotonic_seconds())
      client.pump(due - now);
    client.submit(ctx.seed, true, due);
  }
  bool ok = client.wait([&] { return client.outstanding == 0; }, kDrainTimeout);
  client.request(cg::RequestType::Stats);
  ok = ok && client.wait([&] { return client.stats.has_value(); }, 10.0);
  client.request(cg::RequestType::Shutdown);
  ok = ok && client.wait([&] { return client.byes > 0; }, 10.0);
  daemon.join();
  std::filesystem::remove(socket);
  if (!ok) throw std::runtime_error("serve: daemon stalled or hung up");

  // Exact accounting from the stats frame.
  std::int64_t done_frames = 0, shed = 0;
  for (const JobRecord& j : client.jobs) {
    if (!j.done_line.empty()) ++done_frames;
    if (j.shed) ++shed;
  }
  const cg::JsonValue& s = *client.stats;
  const bool accounting =
      stat_of(s, "accepted") == stat_of(s, "completed") +
                                    stat_of(s, "shed_disconnect") +
                                    stat_of(s, "aborted") + stat_of(s, "failed") &&
      stat_of(s, "completed") == done_frames && stat_of(s, "shed") == shed;
  report.check("serve.stats_accounting", 1, accounting ? 0 : 1);
  report.check("serve.protocol_errors", 1, client.protocol_errors);
  return std::move(client.jobs);
}

}  // namespace

void measure_serve_layers(const RunContext& ctx, Report& report, PerLayer& m) {
  cg::ignore_sigpipe();
  const std::string journal = scratch_path(ctx.workdir, "journal") + ".jsonl";
  std::filesystem::remove(journal);
  std::vector<JobRecord> jobs;
  try {
    jobs = drive_daemon(ctx, report, journal);
  } catch (...) {
    std::filesystem::remove(journal);
    throw;
  }

  // Every done line against a local run_job of the same spec (untimed).
  std::vector<cg::JobResult> results(jobs.size());
  {
    cg::ParallelSweep pool(kVerifyWorkers);
    pool.run(static_cast<int>(jobs.size()), [&](int i) {
      const auto u = static_cast<std::size_t>(i);
      results[u] = cg::run_job(jobs[u].spec);
    });
  }
  // Each job's run time as the daemon's workers paid it: kWorkers threads
  // and a snapshot every kCheckpointEvery slots, with the sink dropping
  // the payload. What is left of accepted -> done is queueing, journal
  // appends and frame IO.
  std::vector<double> run_s(jobs.size(), 0.0);
  {
    cg::ParallelSweep pool(kWorkers);
    pool.run(static_cast<int>(jobs.size()), [&](int i) {
      const auto u = static_cast<std::size_t>(i);
      cg::CheckpointPolicy policy;
      policy.every_slots = kCheckpointEvery;
      policy.sink = [](const std::string&) {};
      const double t0 = cg::monotonic_seconds();
      (void)cg::run_job(jobs[u].spec, policy);
      run_s[u] = cg::monotonic_seconds() - t0;
    });
  }
  std::int64_t done = 0, mismatched = 0, comp = 0, wrong = 0, failed = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobRecord& job = jobs[i];
    const cg::JobResult& r = results[i];
    const bool matches =
        !job.done_line.empty() &&
        job.done_line == cg::frame_done(static_cast<std::int64_t>(i), r);
    if (!job.done_line.empty()) {
      ++done;
      if (!matches) ++mismatched;
    }
    if (job.spec.kind == cg::JobKind::CogComp && r.completed) {
      ++comp;
      if (r.result != r.expected) ++wrong;
    }
    if (!matches || !r.ok || !r.completed) ++failed;
  }
  report.check("serve.done_frames_match_run_job", done, mismatched);
  report.check("serve.cogcomp_result_equals_expected", comp, wrong);
  report.attempts(static_cast<std::int64_t>(jobs.size()), failed);

  // Journal records per job, from the daemon's own journal.
  {
    const cg::JournalRecovery recovery = cg::read_journal(journal);
    std::int64_t undone = 0;
    for (const cg::RecoveredJob& job : recovery.jobs) undone += job.done ? 0 : 1;
    report.check("journal.every_job_done_and_clean_shutdown",
                 static_cast<std::int64_t>(recovery.jobs.size()),
                 undone + (recovery.clean_shutdown ? 0 : 1) +
                     (recovery.jobs.size() == jobs.size() ? 0 : 1));
    if (!recovery.jobs.empty()) {
      const auto n = static_cast<double>(recovery.jobs.size());
      m.journal_records_per_job = static_cast<double>(recovery.records) / n;
      m.journal_bytes_per_job =
          static_cast<double>(std::filesystem::file_size(journal)) / n;
    }
    std::filesystem::remove(journal);
  }

  // Daemon-side spans of every measured job, from the generator's clocks.
  Tracer tracer;
  std::vector<double> admit, queue_wait, run_ms, lag;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobRecord& job = jobs[i];
    if (!job.measured || job.done_line.empty()) continue;
    const auto id = static_cast<std::int64_t>(i);
    const int root = tracer.add({id, -1, "job", job.due, job.done});
    tracer.add({id, root, "loadgen.lag", job.due, job.sent});
    tracer.add({id, root, "server.admit", job.sent, job.accepted});
    tracer.add({id, root, "server.queue_run", job.accepted, job.done});
    admit.push_back((job.accepted - job.sent) * 1e3);
    run_ms.push_back(run_s[i] * 1e3);
    queue_wait.push_back((job.done - job.accepted - run_s[i]) * 1e3);
    lag.push_back((job.sent - job.due) * 1e3);
  }
  m.server_admit_ms_p50 = quantile(admit, 0.5);
  m.server_run_ms_p50 = quantile(run_ms, 0.5);
  m.server_queue_wait_ms_p50 = quantile(queue_wait, 0.5);
  m.server_queue_wait_ms_p99 = quantile(queue_wait, 0.99);
  m.loadgen_lag_ms_p99 = quantile(lag, 0.99);

  // Frame codec over the measured job mix.
  {
    std::int64_t coded = 0;
    const double t0 = cg::monotonic_seconds();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!jobs[i].measured) continue;
      cg::Request request;
      request.type = cg::RequestType::Submit;
      request.id = static_cast<std::int64_t>(i);
      request.job = jobs[i].spec;
      std::string frame = cg::encode_request(request);
      frame.pop_back();
      std::string line = cg::frame_done(request.id, results[i]);
      line.pop_back();
      if (cg::parse_request(frame, nullptr) && cg::parse_response(line, nullptr))
        ++coded;
    }
    if (coded > 0)
      m.protocol_codec_us_per_job =
          (cg::monotonic_seconds() - t0) / static_cast<double>(coded) * 1e6;
  }

  // Sampled jobs through a CheckpointPolicy sink (supervisor and checkpoint
  // counts, and the cost of snapshotting), then their record mix appended
  // to a scratch journal one record at a time.
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < jobs.size() && sample.size() < kSampledJobs; ++i)
    if (jobs[i].measured) sample.push_back(i);
  std::vector<std::vector<std::string>> payloads;
  std::vector<cg::JobResult> sampled;
  double plain_s = 0.0, policy_s = 0.0, bytes = 0.0, count = 0.0, epochs = 0.0;
  for (const std::size_t i : sample) {
    double t0 = cg::monotonic_seconds();
    (void)cg::run_job(jobs[i].spec);
    plain_s += cg::monotonic_seconds() - t0;
    std::vector<std::string> kept;
    cg::CheckpointPolicy policy;
    policy.every_slots = kCheckpointEvery;
    policy.sink = [&](const std::string& payload) { kept.push_back(payload); };
    t0 = cg::monotonic_seconds();
    sampled.push_back(cg::run_job(jobs[i].spec, policy));
    policy_s += cg::monotonic_seconds() - t0;
    for (const std::string& p : kept) bytes += static_cast<double>(p.size());
    count += static_cast<double>(kept.size());
    epochs += static_cast<double>(sampled.back().epochs);
    payloads.push_back(std::move(kept));
  }
  if (!sample.empty()) {
    const auto n = static_cast<double>(sample.size());
    m.checkpoint_count_per_job = count / n;
    m.checkpoint_bytes_per_job = bytes / n;
    m.supervisor_epochs_per_job = epochs / n;
    m.checkpoint_overhead_ms = (policy_s - plain_s) / n * 1e3;
  }
  {
    const std::string path = scratch_path(ctx.workdir, "append") + ".jsonl";
    std::filesystem::remove(path);
    std::vector<double> append_ms;
    {
      cg::JobJournal scratch(path);
      auto timed = [&](auto&& append) {
        const double t0 = cg::monotonic_seconds();
        append();
        append_ms.push_back((cg::monotonic_seconds() - t0) * 1e3);
      };
      for (std::size_t j = 0; j < sample.size(); ++j) {
        const auto seq = static_cast<std::int64_t>(j) + 1;
        const auto id = static_cast<std::int64_t>(sample[j]);
        timed([&] { scratch.submitted(seq, id, jobs[sample[j]].spec); });
        timed([&] { scratch.started(seq); });
        for (const std::string& p : payloads[j])
          timed([&] { scratch.checkpoint(seq, p); });
        timed([&] { scratch.done(seq, sampled[j]); });
      }
    }
    std::filesystem::remove(path);
    m.journal_append_ms_p50 = quantile(append_ms, 0.5);
    m.journal_append_ms_p99 = quantile(append_ms, 0.99);
  }

  const std::string path = ctx.workdir + "/trace-" + ctx.workload + "-serve-seed" +
                           std::to_string(ctx.seed) + ".jsonl";
  report.check("serve.spans_written", 1,
               tracer.write(path, jobs.empty() ? 0.0 : jobs.front().due) ? 0 : 1);
  report.note("serve_jobs=" + std::to_string(jobs.size()) +
              " offered_rate=" + std::to_string(kOfferedRate) +
              " trace_file=" + path);
}

}  // namespace perfbench
