// The benchmark's entry points.
#pragma once

#include "report.h"

namespace perfbench {

// Runs cast_sweep, dynamic_sweep or agg_sweep (sweeps.cpp) and fills
// `report`; false when `ctx.workload` names none of them.
bool run_sweep_workload(const RunContext& ctx, Report& report);

// Drives jobs through an in-process `cograd serve` daemon and fills the
// checkpoint, supervisor, journal, server, protocol and loadgen metrics
// of `m`, with their correctness checks (serve.cpp).
void measure_serve_layers(const RunContext& ctx, Report& report, PerLayer& m);

}  // namespace perfbench
