//===- TransformPinTest.cpp - Pins the lowered program and Check(P) -------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the printed output of lowering and of the KISS transform at every
/// context-switch bound, over every shipped example, every regression
/// repro and 200 generated programs. For each program the golden holds
/// two hashes:
///   - assertion mode: the printed core program, then the printed Check(P)
///     for MaxTs in {0, 1, 2} times K in {2, 4, 6};
///   - race mode: the printed race-checking program for every location
///     Session::raceLocations lists, at MaxTs = 1 and K = 4.
/// FrontEndPin covers only the paper tables (race mode, MaxTs = 0, K = 2)
/// and ExecEngineTest compares two engines that share the transform, so
/// this is what catches a moved byte in the K > 2 passes (statement
/// numbering, resumability analysis, the susp-variant rewrites).
///
/// The golden lives in tests/golden/transform_pin.txt, one line per
/// program. On a mismatch the full actual table is written to
/// transform_pin.actual.txt in the working directory.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Generator.h"
#include "kiss/Kiss.h"
#include "kiss/Transform.h"
#include "lang/ASTPrinter.h"
#include "lower/Pipeline.h"
#include "support/Hashing.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

using namespace kiss;

namespace {

constexpr unsigned NumGeneratedPrograms = 200;

std::string readFile(const std::filesystem::path &P) {
  std::ifstream In(P);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// (name, source) for the sorted *.kiss files of \p Dir, named
/// \p Group/<file>.
void addFiles(const char *Dir, const std::string &Group,
              std::vector<std::pair<std::string, std::string>> &Out) {
  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == ".kiss")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  for (const auto &F : Files)
    Out.emplace_back(Group + "/" + F.filename().string(), readFile(F));
}

/// Adds one transform result: its printed program, or a marker when the
/// transform rejected the input.
void addTransformed(StableHasher &H, const lang::Program *Check) {
  if (!Check) {
    H.addBytes("<rejected>");
    return;
  }
  std::string Printed = lang::printProgram(*Check);
  H.addU64(Printed.size());
  H.addBytes(Printed);
}

std::string hex(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

/// The golden line of one program: "<name> <assertion hash> <race hash>".
std::string pinLine(const std::string &Name, const std::string &Source) {
  Session S;
  auto P = S.compile(Name, Source);
  if (!P)
    return Name + " <compile error>";
  DiagnosticEngine &Diags = S.context().Diags;

  StableHasher Assertions;
  std::string Core = lang::printProgram(*P);
  Assertions.addU64(Core.size());
  Assertions.addBytes(Core);
  for (unsigned MaxTs : {0u, 1u, 2u})
    for (unsigned K : {2u, 4u, 6u}) {
      core::TransformOptions TO;
      TO.MaxTs = MaxTs;
      TO.MaxSwitches = K;
      addTransformed(Assertions,
                     core::transformForAssertions(*P, TO, Diags).get());
    }

  StableHasher Race;
  for (const std::string &Loc : S.raceLocations(*P)) {
    core::RaceTarget Target;
    std::string Error;
    if (!S.resolveRaceTarget(Loc, *P, Target, Error))
      return Name + " <unresolvable race location " + Loc + ">";
    core::TransformOptions TO;
    TO.MaxTs = 1;
    TO.MaxSwitches = 4;
    Race.addBytes(Loc);
    addTransformed(Race, core::transformForRace(*P, Target, TO, Diags).get());
  }
  return Name + " " + hex(Assertions.finish()) + " " + hex(Race.finish());
}

TEST(TransformPin, LoweredAndTransformedProgramsUnchanged) {
  std::vector<std::pair<std::string, std::string>> Programs;
  addFiles(KISS_SAMPLES_DIR, "examples", Programs);
  addFiles(KISS_REGRESS_DIR, "regress", Programs);
  for (uint64_t Seed = 1; Seed <= NumGeneratedPrograms; ++Seed)
    Programs.emplace_back(
        "gen/" + std::to_string(Seed),
        fuzz::generateProgram(Seed, fuzz::varyOptions(Seed, {})));

  std::string Actual;
  for (const auto &[Name, Source] : Programs)
    Actual += pinLine(Name, Source) + "\n";

  std::string Golden = readFile(KISS_TRANSFORM_PIN_GOLDEN);
  if (Actual == Golden)
    return;
  std::ofstream("transform_pin.actual.txt") << Actual;
  auto byName = [](const std::string &Table) {
    std::map<std::string, std::string> Lines;
    std::istringstream In(Table);
    for (std::string Line; std::getline(In, Line);)
      Lines[Line.substr(0, Line.find(' '))] = Line;
    return Lines;
  };
  std::map<std::string, std::string> A = byName(Actual), G = byName(Golden);
  std::string Moved;
  for (const auto &[Name, Line] : G)
    if (A[Name] != Line)
      Moved += "\n  " + Line + "\n  -> " + A[Name];
  for (const auto &[Name, Line] : A)
    if (!G.count(Name))
      Moved += "\n  (new) " + Line;
  ADD_FAILURE() << "transform pin moved (actual table written to "
                   "transform_pin.actual.txt):"
                << Moved;
}

} // namespace
