// cogbench — the repository's end-to-end benchmark.
//
//   cogbench --workload NAME --seed N --seconds S --trace 0|1
//            [--smoke] [--workdir DIR]
//
// --trace 0 measures the end-to-end metrics with nothing traced; --trace 1
// runs the traced per-layer split instead. --smoke shrinks every phase to
// a fraction of a second (perfbench/smoke.py drives it). Scratch files
// (span traces, the serve journal) go under --workdir.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "cogbench: %s\nusage: cogbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--workdir DIR]\n",
               why);
  return 2;
}

bool parse_u64(const std::string& text, unsigned long long* out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "cogbench: refusing to report from a build without "
               "optimisation or with NDEBUG unset; configure with "
               "CMAKE_BUILD_TYPE=Release or RelWithDebInfo\n");
  return 3;
#endif
  perfbench::RunContext ctx;
  ctx.workdir = ".";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      ctx.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    unsigned long long number = 0;
    if (flag == "--workload") {
      ctx.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &number)) return usage("--seed: not a number");
      ctx.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &number) || number < 1 || number > 600)
        return usage("--seconds: need a whole number in [1, 600]");
      ctx.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace: need 0 or 1");
      ctx.trace = value == "1";
      have_trace = true;
    } else if (flag == "--workdir") {
      ctx.workdir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");
  // The smoke preset checks wiring, not speed: a fifth of a second per phase.
  if (ctx.smoke) ctx.seconds = 0.2;

  perfbench::Report report;
  try {
    if (!perfbench::run_sweep_workload(ctx, report))
      return usage(("unknown workload " + ctx.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cogbench: %s: %s\n", ctx.workload.c_str(), e.what());
    return 2;
  }
  return report.finish(ctx);
}
