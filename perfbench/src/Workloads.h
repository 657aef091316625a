//===- Workloads.h - The benchmark's workloads ------------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload fills a RunResult with either the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run). A workload
/// returns false, with a message on stderr, when it cannot run at all;
/// a wrong answer is not such a failure, it is recorded in the result.
///
//===----------------------------------------------------------------------===//

#ifndef KISSBENCH_WORKLOADS_H
#define KISSBENCH_WORKLOADS_H

#include "Measure.h"

namespace kb {

/// Number of timed-phase set-ups a run makes; setup_s is their median.
inline constexpr unsigned SetupRepeats = 7;

bool runPaperTables(const RunOptions &O, RunResult &R);
bool runKissdStream(const RunOptions &O, RunResult &R);

/// Capacity reserved for per-op samples before a timed phase.
inline constexpr size_t OpsReserve = size_t(1) << 22;

/// splitmix64 of \p X: seeds derived from the run seed.
uint64_t mixSeed(uint64_t X);

} // namespace kb

#endif // KISSBENCH_WORKLOADS_H
