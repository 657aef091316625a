//===- Session.cpp - The kiss::Session façade -----------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "kiss/Kiss.h"

#include "lower/Pipeline.h"

using namespace kiss;
using namespace kiss::core;

Session::Session(CheckConfig C)
    : Cfg(std::move(C)), Ctx(std::make_unique<lower::CompilerContext>()) {
  Ctx->Recorder = Cfg.Common.Recorder;
}

Session::~Session() = default;

std::unique_ptr<lang::Program> Session::compile(std::string Name,
                                                std::string Source) {
  // The recorder may have been (re)configured after construction.
  Ctx->Recorder = Cfg.Common.Recorder;
  return lower::compileToCore(*Ctx, std::move(Name), std::move(Source));
}

CheckResult Session::check(const lang::Program &P) {
  return core::check(P, Cfg, Ctx->Diags, &Ctx->SM);
}

bool Session::resolveRaceTarget(const std::string &Spec,
                                const lang::Program &P, RaceTarget &Out,
                                std::string &Error) {
  auto Dot = Spec.find('.');
  if (Dot == std::string::npos) {
    Symbol G = Ctx->Syms.intern(Spec);
    if (P.getGlobalIndex(G) < 0) {
      Error = "no global named '" + Spec + "'";
      return false;
    }
    Out = RaceTarget::global(G);
    return true;
  }
  Symbol S = Ctx->Syms.intern(Spec.substr(0, Dot));
  Symbol F = Ctx->Syms.intern(Spec.substr(Dot + 1));
  const lang::StructDecl *SD = P.getStruct(S);
  if (!SD || SD->getFieldIndex(F) < 0) {
    Error = "no field named '" + Spec + "'";
    return false;
  }
  Out = RaceTarget::field(S, F);
  return true;
}

std::vector<std::string>
Session::raceLocations(const lang::Program &P) const {
  std::vector<std::string> Out;
  for (const lang::GlobalDecl &G : P.getGlobals())
    Out.push_back(std::string(Ctx->Syms.str(G.Name)));
  for (const auto &S : P.getStructs())
    for (const lang::FieldDecl &F : S->getFields())
      Out.push_back(std::string(Ctx->Syms.str(S->getName())) + "." +
                    std::string(Ctx->Syms.str(F.Name)));
  return Out;
}

bool Session::hasErrors() const { return Ctx->Diags.hasErrors(); }

std::string Session::diagnostics() const { return Ctx->renderDiagnostics(); }
