#pragma once

/// Umbrella header: the full ParaStack public API.
///
/// Layering (each header can also be included individually):
///   util/     deterministic RNG, summaries, histograms
///   stats/    runs test, ECDF, binomial sample-size ladder, geometric test
///   sim/      discrete-event engine, virtual time, platform models
///   simmpi/   simulated MPI runtime (ranks, matching, collectives, stacks)
///   trace/    ptrace-style stack inspector
///   workloads/ calibrated NPB/HPL/HPCG synthetic benchmarks
///   faults/   fault injection (hangs, deadlocks, slowdowns, freezes)
///   core/     ParaStack itself: model, detector, baseline, reports
///   sched/    batch scheduler integration and SU accounting
///   harness/  experiment runner and campaign metrics

#include "core/config.hpp"
#include "core/detector.hpp"
#include "core/faulty_id.hpp"
#include "core/io_watchdog.hpp"
#include "core/model.hpp"
#include "core/monitor_network.hpp"
#include "core/report.hpp"
#include "core/slowdown_filter.hpp"
#include "core/timeout_detector.hpp"
#include "faults/fault.hpp"
#include "faults/injector.hpp"
#include "harness/campaign.hpp"
#include "harness/runner.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/platform.hpp"
#include "sim/time.hpp"
#include "simmpi/action.hpp"
#include "simmpi/comm_engine.hpp"
#include "simmpi/rank_process.hpp"
#include "simmpi/stack.hpp"
#include "simmpi/types.hpp"
#include "simmpi/world.hpp"
#include "stats/binomial.hpp"
#include "stats/ecdf.hpp"
#include "stats/geometric.hpp"
#include "stats/runs_test.hpp"
#include "trace/inspector.hpp"
#include "util/histogram.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/summary.hpp"
#include "workloads/catalog.hpp"
#include "workloads/profile.hpp"
#include "workloads/synthetic.hpp"
