//===- FrontEndPinTest.cpp - Pins the front end's output ------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
//
// Hashes what the front end makes for every check of the paper's tables:
// Table 1 (all 481 fields under the V1 harness), then Table 2 (the 71
// V1-racy fields under the V2 harness). Each check contributes its
// generated source, its printed Check(P) and every function's CFG
// successor lists in order. A change to lexing, interning, lowering,
// the transform or the CFG builder that moves a single byte of any of
// them moves the hash.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "drivers/Corpus.h"
#include "drivers/ModelGen.h"
#include "kiss/Transform.h"
#include "lang/ASTPrinter.h"
#include "support/Hashing.h"

#include <cinttypes>
#include <cstdio>

using namespace kiss;
using namespace kiss::drivers;

namespace {

/// The hash the front end produced when this test was written.
constexpr uint64_t ExpectedHash = 0x7b33c86136a9665eull;

bool isRacyUnderV1(const FieldSpec &F) {
  return F.Behavior == FieldBehavior::RealRace ||
         F.Behavior == FieldBehavior::SpuriousRace;
}

/// Adds one field check's front-end output to \p H.
void hashCheck(StableHasher &H, const DriverSpec &D, unsigned FieldIdx,
               HarnessVersion V) {
  std::string Source = buildFieldProgram(D, FieldIdx, V);
  H.addU64(Source.size());
  H.addBytes(Source);

  lower::CompilerContext Ctx;
  auto P = lower::compileToCore(Ctx, D.Name + "." + D.Fields[FieldIdx].Name,
                                Source);
  ASSERT_TRUE(P) << Ctx.renderDiagnostics();
  core::TransformOptions TO;
  TO.MaxTs = 0;
  core::RaceTarget Target = core::RaceTarget::field(
      Ctx.Syms.intern(getDeviceExtensionName()),
      Ctx.Syms.intern(D.Fields[FieldIdx].Name));
  auto Check = core::transformForRace(*P, Target, TO, Ctx.Diags);
  ASSERT_TRUE(Check) << Ctx.renderDiagnostics();

  std::string Printed = lang::printProgram(*Check);
  H.addU64(Printed.size());
  H.addBytes(Printed);

  cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*Check);
  H.addU32(CFG.getNumFunctions());
  for (uint32_t F = 0; F != CFG.getNumFunctions(); ++F) {
    const cfg::FunctionCFG &FC = CFG.getFunctionCFG(F);
    H.addU32(FC.getNumNodes());
    for (uint32_t N = 0; N != FC.getNumNodes(); ++N) {
      const cfg::Node &Node = FC.getNode(N);
      H.addU32(static_cast<uint32_t>(Node.Succs.size()));
      for (uint32_t S : Node.Succs)
        H.addU32(S);
    }
  }
}

TEST(FrontEndPin, PaperTableChecksHashUnchanged) {
  std::vector<DriverSpec> Corpus = getTable1Corpus();
  StableHasher H;
  unsigned V1Checks = 0, V2Checks = 0;
  for (const DriverSpec &D : Corpus)
    for (unsigned I = 0; I != D.Fields.size(); ++I, ++V1Checks) {
      hashCheck(H, D, I, HarnessVersion::V1Unconstrained);
      if (HasFatalFailure())
        return;
    }
  for (const DriverSpec &D : Corpus)
    for (unsigned I = 0; I != D.Fields.size(); ++I) {
      if (!isRacyUnderV1(D.Fields[I]))
        continue;
      hashCheck(H, D, I, HarnessVersion::V2Refined);
      if (HasFatalFailure())
        return;
      ++V2Checks;
    }
  EXPECT_EQ(V1Checks, 481u);
  EXPECT_EQ(V2Checks, 71u);
  char Hex[32];
  std::snprintf(Hex, sizeof(Hex), "0x%016" PRIx64, H.finish());
  EXPECT_EQ(H.finish(), ExpectedHash) << "front-end output hash is " << Hex;
}

} // namespace
