//===- complexity_claim.cpp - §4's O(|C| * 2^(g+l)) bound, measured -------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §4: "For a sequential program with boolean variables, the complexity of
/// model checking (or interprocedural dataflow analysis) is
/// O(|C| * 2^(g+l)) ... Our instrumentation introduces a small constant
/// blowup in the control-flow graph ... and adds a small constant number
/// of global variables."
///
/// Four measurements, driven through kiss::Session with the bebop engine
/// (the same backend kisscheck --engine=bebop runs), emitted to
/// BENCH_bebop.json through the shared telemetry writer:
///  1. path edges scale ~2x per added boolean global g (fixed |C|, l);
///  2. path edges scale ~2x per added boolean local l (fixed |C|, g);
///  3. path edges scale ~linearly in |C| (fixed g, l);
///  4. the KISS instrumentation multiplies |C| by a small constant and
///     adds a small constant number of globals (measured on Figure 2).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "cfg/CFG.h"
#include "drivers/Bluetooth.h"
#include "kiss/Transform.h"
#include "seqcheck/Result.h"
#include "telemetry/Telemetry.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace kiss;
using namespace kiss::bench;

namespace {

/// g nondet globals, then a chain of Steps touch-statements. Reachable
/// valuations at every chain node: all 2^g.
std::string makeGlobalFamily(unsigned Globals, unsigned Steps) {
  std::string Src;
  for (unsigned G = 0; G != Globals; ++G)
    Src += "bool g" + std::to_string(G) + ";\n";
  Src += "bool sink;\n";
  Src += "void main() {\n";
  for (unsigned G = 0; G != Globals; ++G)
    Src += "  g" + std::to_string(G) + " = nondet_bool();\n";
  for (unsigned S = 0; S != Steps; ++S)
    Src += "  sink = g" + std::to_string(S % Globals) + ";\n";
  Src += "  assert(true);\n";
  Src += "}\n";
  return Src;
}

/// l nondet locals in main, then a chain of Steps touch-statements.
/// Reachable (G, L) pairs at every chain node: all 2^l local valuations.
std::string makeLocalFamily(unsigned Locals, unsigned Steps) {
  std::string Src;
  Src += "bool sink;\n";
  Src += "void main() {\n";
  for (unsigned L = 0; L != Locals; ++L)
    Src += "  bool l" + std::to_string(L) + " = nondet_bool();\n";
  for (unsigned S = 0; S != Steps; ++S)
    Src += "  sink = l" + std::to_string(S % Locals) + ";\n";
  Src += "  assert(true);\n";
  Src += "}\n";
  return Src;
}

/// One sweep point: check \p Source under the bebop engine through the
/// Session façade and record the run into \p Rec. Aborts on anything but
/// a clean Safe verdict (bench inputs are all in the fragment).
uint64_t pathEdges(telemetry::RunRecorder &Rec, const std::string &Name,
                   const std::string &Source) {
  CheckConfig Cfg;
  Cfg.Engine = rt::Engine::Bebop;
  Cfg.MaxTs = 0;
  Compiled C = compileOrDie(Name, Source, Cfg);
  auto Start = std::chrono::steady_clock::now();
  CheckResult R = C.check();
  double Sec = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - Start)
                   .count();
  if (C.S->hasErrors() || R.Verdict != core::KissVerdict::NoErrorFound) {
    std::fprintf(stderr, "bench family '%s' did not verify cleanly:\n%s\n",
                 Name.c_str(), C.S->diagnostics().c_str());
    std::abort();
  }

  Rec.addCheck(core::makeCheckRecord(R, Name, Sec * 1000.0));
  return R.PathEdges;
}

/// Runs one exponential sweep (measurement 1 or 2): \p Make builds the
/// family member for a count N in [Lo, Hi]; path edges must grow within
/// [1.5x, 2.5x] per increment. Prints the table and \returns HOLDS.
template <typename MakeFn>
bool sweepExponent(telemetry::RunRecorder &Rec, const char *Axis,
                   unsigned Lo, unsigned Hi, MakeFn Make) {
  std::printf("%4s | %12s | %8s\n", Axis, "path edges", "growth");
  bool Ok = true;
  uint64_t Prev = 0;
  for (unsigned N = Lo; N <= Hi; ++N) {
    std::string Name = std::string(Axis) + "=" + std::to_string(N);
    uint64_t Edges = pathEdges(Rec, Name, Make(N));
    double Growth = Prev ? static_cast<double>(Edges) / Prev : 0.0;
    std::printf("%4u | %12llu | %7.2fx\n", N,
                static_cast<unsigned long long>(Edges), Growth);
    if (Prev && (Growth < 1.5 || Growth > 2.5))
      Ok = false;
    Prev = Edges;
  }
  std::printf("   expected: ~2x per extra %s -> %s\n\n", Axis,
              Ok ? "HOLDS" : "VIOLATED");
  return Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *JsonPath = "BENCH_bebop.json";
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--json-out=", 11) == 0) {
      JsonPath = Argv[I] + 11;
    } else {
      std::fprintf(stderr, "usage: %s [--json-out=PATH]\n", Argv[0]);
      return 2;
    }
  }

  std::printf("The O(|C| * 2^(g+l)) complexity claim, measured on the "
              "bebop engine\n");
  printRule('=');

  telemetry::RunRecorder Rec;
  Rec.setMeta("bench", "complexity_claim");
  Rec.setMeta("engine", "bebop");

  // 1. Exponential in the number of globals g.
  std::printf("1. Fixed |C| (40 chain statements), growing globals g:\n");
  bool ExpGOk = sweepExponent(Rec, "g", 2, 10, [](unsigned G) {
    return makeGlobalFamily(G, 40);
  });

  // 2. Exponential in the number of locals l.
  std::printf("2. Fixed |C| (40 chain statements), growing locals l:\n");
  bool ExpLOk = sweepExponent(Rec, "l", 2, 10, [](unsigned L) {
    return makeLocalFamily(L, 40);
  });

  // 3. Linear in |C|.
  std::printf("3. Fixed globals (g = 6), growing chain length (|C|):\n");
  std::printf("%6s | %12s | %14s\n", "steps", "path edges", "edges/step");
  bool LinOk = true;
  double FirstPerStep = 0;
  for (unsigned Steps : {20u, 40u, 80u, 160u, 320u}) {
    uint64_t Edges = pathEdges(Rec, "steps=" + std::to_string(Steps),
                               makeGlobalFamily(6, Steps));
    double PerStep = static_cast<double>(Edges) / Steps;
    if (FirstPerStep == 0)
      FirstPerStep = PerStep;
    std::printf("%6u | %12llu | %14.1f\n", Steps,
                static_cast<unsigned long long>(Edges), PerStep);
    if (PerStep > FirstPerStep * 2.0)
      LinOk = false;
  }
  std::printf("   expected: edges/step approaches a constant -> %s\n\n",
              LinOk ? "HOLDS" : "VIOLATED");

  // 4. The KISS translation's constant blowup (Figure 2 model).
  std::printf("4. Instrumentation blowup on the Bluetooth model:\n");
  Compiled BT = compileOrDie("bt", drivers::getBluetoothSource());
  cfg::ProgramCFG Before = cfg::ProgramCFG::build(*BT.Program);
  core::TransformOptions TO;
  TO.MaxTs = 1;
  DiagnosticEngine Diags;
  // Direct transform call (not Session::check): this claim measures the
  // translation's output size without running any exploration.
  auto Transformed = core::transformForAssertions(*BT.Program, TO, Diags);
  if (!Transformed)
    return 1;
  cfg::ProgramCFG After = cfg::ProgramCFG::build(*Transformed);
  double CfgBlowup = static_cast<double>(After.getTotalNodes()) /
                     Before.getTotalNodes();
  unsigned AddedGlobals = Transformed->getGlobals().size() -
                          BT.Program->getGlobals().size();
  std::printf("   |C| %u -> %u nodes (%.1fx); globals %zu -> %zu "
              "(+%u)\n", Before.getTotalNodes(), After.getTotalNodes(),
              CfgBlowup, BT.Program->getGlobals().size(),
              Transformed->getGlobals().size(), AddedGlobals);
  bool BlowupOk = CfgBlowup < 8.0 && AddedGlobals <= 8;
  std::printf("   expected: small constant blowup -> %s\n",
              BlowupOk ? "HOLDS" : "VIOLATED");

  printRule('=');
  bool Ok = ExpGOk && ExpLOk && LinOk && BlowupOk;
  Rec.setMeta("matches_theory", Ok ? "true" : "false");
  telemetry::writeReport(Rec, JsonPath);
  std::printf("wrote %s\n", JsonPath);
  std::printf("Reproduction %s.\n", Ok ? "SUCCEEDED" : "FAILED");
  return Ok ? 0 : 1;
}
