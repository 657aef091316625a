//===- Compose.h - The KISS pipeline composed from public calls -*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's copy of what kiss::Session::compile + check do, built
/// from each module's public entry points in the order the Session calls
/// them, with a span around every call. It adds no timer inside the
/// program; the benchmark checks op for op that it reaches the same
/// verdict, states and transitions as the untraced entry point.
///
//===----------------------------------------------------------------------===//

#ifndef KISSBENCH_COMPOSE_H
#define KISSBENCH_COMPOSE_H

#include "Measure.h"

#include "kiss/Kiss.h"
#include "lower/Pipeline.h"

#include <memory>
#include <string>

namespace kb {

/// What one check asks for; mirrors the CheckConfig fields the workloads
/// set.
struct CheckSpec {
  bool Race = false;
  std::string RaceField; ///< "STRUCT.field" when Race.
  unsigned MaxTs = 0;
  unsigned MaxSwitches = 2;
  uint64_t MaxStates = 1'000'000;
  kiss::rt::Engine Engine = kiss::rt::Engine::Seq;
};

struct CheckOutcome {
  kiss::core::KissVerdict Verdict = kiss::core::KissVerdict::NoErrorFound;
  uint64_t States = 0;
  uint64_t Transitions = 0;
  kiss::rt::Engine EngineUsed = kiss::rt::Engine::Seq;
  kiss::core::TransformStats Stats;
  kiss::core::ConcurrentTrace Trace; ///< Mapped witness when an error.
  /// Process CPU of the separate alias call (the benchmark's extra work).
  Usage AliasCpu;

  bool foundError() const {
    return Verdict == kiss::core::KissVerdict::AssertionViolation ||
           Verdict == kiss::core::KissVerdict::RaceDetected ||
           Verdict == kiss::core::KissVerdict::RuntimeError;
  }
};

/// lower::parseAndCheck then lower::lowerProgram (= lower::compileToCore),
/// spans "lang.parse" and "lower.lower". nullptr when it does not compile.
std::unique_ptr<kiss::lang::Program>
compileTraced(Tracer &T, Counters &C, kiss::lower::CompilerContext &Ctx,
              const std::string &Name, const std::string &Source);

/// The check half of the Session: alias (timed on its own, since the
/// transform runs it inside), transform, engine selection, cfg, seqcheck
/// or bebop, verdict classification and trace mapping.
CheckOutcome checkTraced(Tracer &T, Counters &C,
                         kiss::lower::CompilerContext &Ctx,
                         const kiss::lang::Program &P, const CheckSpec &S);

} // namespace kb

#endif // KISSBENCH_COMPOSE_H
