//===- ModelGen.cpp -------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "drivers/ModelGen.h"

#include "drivers/Ddk.h"

#include <cassert>
#include <cctype>
#include <initializer_list>
#include <map>
#include <string_view>

using namespace kiss::drivers;

bool kiss::drivers::mayRunConcurrently(IrpCategory A, IrpCategory B,
                                       bool NoConcurrentIoctls) {
  // A2: nothing runs concurrently with a Pnp start/remove IRP.
  if (A == IrpCategory::PnpStartRemove || B == IrpCategory::PnpStartRemove)
    return false;
  // A1: no two Pnp IRPs concurrently.
  if (A == IrpCategory::PnpOther && B == IrpCategory::PnpOther)
    return false;
  // A3: two concurrent Power IRPs must belong to different categories.
  if (A == IrpCategory::PowerSystem && B == IrpCategory::PowerSystem)
    return false;
  if (A == IrpCategory::PowerDevice && B == IrpCategory::PowerDevice)
    return false;
  // Filter-driver guarantee (kb.ltr / mou.ltr): no two concurrent Ioctls.
  if (NoConcurrentIoctls && A == IrpCategory::Ioctl &&
      B == IrpCategory::Ioctl)
    return false;
  return true;
}

namespace {

/// Appends every piece to \p Out, making no temporary strings.
void append(std::string &Out, std::initializer_list<std::string_view> Pieces) {
  for (std::string_view Piece : Pieces)
    Out += Piece;
}

/// "toaster/toastmon" -> "toaster_toastmon" for identifier use.
std::string sanitize(const std::string &Name) {
  std::string Out;
  // Driver names like "1394diag" must not produce identifiers that start
  // with a digit.
  if (!Name.empty() && std::isdigit(static_cast<unsigned char>(Name[0])))
    Out += "drv";
  for (char C : Name)
    Out += (std::isalnum(static_cast<unsigned char>(C)) != 0) ? C : '_';
  return Out;
}

std::string categoryTag(IrpCategory C) {
  switch (C) {
  case IrpCategory::PnpStartRemove:
    return "PnpStart";
  case IrpCategory::PnpOther:
    return "Pnp";
  case IrpCategory::PowerSystem:
    return "PowerSys";
  case IrpCategory::PowerDevice:
    return "PowerDev";
  case IrpCategory::Ioctl:
    return "Ioctl";
  case IrpCategory::Read:
    return "Read";
  case IrpCategory::Write:
    return "Write";
  case IrpCategory::CreateClose:
    return "Create";
  }
  return "X";
}

/// Names of the two accessor routines of one field.
struct RoutineNames {
  std::string A;
  std::string B;
};

RoutineNames routineNames(const DriverSpec &D, const FieldSpec &F) {
  std::string Drv = sanitize(D.Name);
  RoutineNames N;
  append(N.A, {Drv, "_", categoryTag(F.CatA), "_", F.Name, "_A"});
  append(N.B, {Drv, "_", categoryTag(F.CatB), "_", F.Name, "_B"});
  return N;
}

/// Emits the device-extension struct covering every field of the driver.
void emitDeviceExtension(const DriverSpec &D, std::string &Out) {
  Out += "struct ";
  Out += getDeviceExtensionName();
  Out += " {\n";
  for (const FieldSpec &F : D.Fields)
    append(Out, {"  int ", F.Name, ";\n"});
  Out += "}\n\n";
}

/// Emits the two accessor routines of field \p F.
void emitFieldRoutines(const DriverSpec &D, const FieldSpec &F,
                       std::string &Out) {
  RoutineNames N = routineNames(D, F);
  const char *Dev = getDeviceExtensionName();

  switch (F.Behavior) {
  case FieldBehavior::LockField:
    // The lock cell is only touched inside the DDK primitives' atomic
    // blocks; these routines exercise acquire/release.
    append(Out, {"void ", N.A, "(", Dev, " *e) {\n"});
    append(Out, {"  KeAcquireSpinLock(&e->", F.Name, ");\n"});
    append(Out, {"  KeReleaseSpinLock(&e->", F.Name, ");\n"});
    Out += "}\n\n";
    append(Out, {"void ", N.B, "(", Dev, " *e) {\n"});
    append(Out, {"  KeAcquireSpinLock(&e->", F.Name, ");\n"});
    append(Out, {"  KeReleaseSpinLock(&e->", F.Name, ");\n"});
    Out += "}\n\n";
    return;

  case FieldBehavior::RealRace:
  case FieldBehavior::SpuriousRace:
    // The toastmon pattern (Figure 6): a lock-protected write racing with
    // one unprotected read. Whether the race is real or spurious is
    // decided purely by the IRP categories the routines carry.
    append(Out, {"void ", N.A, "(", Dev, " *e) {\n"});
    Out += "  RecordRequest(&totalRequests);\n";
    Out += "  KeAcquireSpinLock(&e->QueueLock);\n";
    append(Out, {"  e->", F.Name, " = e->", F.Name, " + 1;\n"});
    Out += "  KeReleaseSpinLock(&e->QueueLock);\n";
    Out += "}\n\n";
    append(Out, {"void ", N.B, "(", Dev, " *e) {\n"});
    append(Out, {"  int value = e->", F.Name, ";   // unprotected read\n"});
    Out += "  if (value > 0) { skip; }\n";
    Out += "}\n\n";
    return;

  case FieldBehavior::Protected:
    append(Out, {"void ", N.A, "(", Dev, " *e) {\n"});
    Out += "  RecordRequest(&totalRequests);\n";
    Out += "  KeAcquireSpinLock(&e->QueueLock);\n";
    append(Out, {"  e->", F.Name, " = e->", F.Name, " + 1;\n"});
    Out += "  KeReleaseSpinLock(&e->QueueLock);\n";
    Out += "}\n\n";
    append(Out, {"void ", N.B, "(", Dev, " *e) {\n"});
    Out += "  int value;\n";
    Out += "  KeAcquireSpinLock(&e->QueueLock);\n";
    append(Out, {"  value = e->", F.Name, ";\n"});
    Out += "  KeReleaseSpinLock(&e->QueueLock);\n";
    Out += "  if (value > 0) { skip; }\n";
    Out += "}\n\n";
    return;

  case FieldBehavior::Heavy:
    // Protected accesses, but with enough nondeterministic request state
    // that exhaustive exploration exceeds the per-field resource bound —
    // the analogue of the paper's 20-minute timeouts.
    append(Out, {"void ", N.A, "(", Dev, " *e) {\n"});
    Out += "  RecordRequest(&totalRequests);\n";
    Out += "  KeAcquireSpinLock(&e->QueueLock);\n";
    append(Out, {"  e->", F.Name, " = e->", F.Name, " + 1;\n"});
    Out += "  KeReleaseSpinLock(&e->QueueLock);\n";
    Out += "}\n\n";
    append(Out, {"void ", N.B, "(", Dev, " *e) {\n"});
    Out += "  int req0 = nondet_int(0, 9);\n";
    Out += "  int req1 = nondet_int(0, 9);\n";
    Out += "  int req2 = nondet_int(0, 9);\n";
    Out += "  int req3 = nondet_int(0, 9);\n";
    Out += "  int req4 = nondet_int(0, 9);\n";
    Out += "  if (req0 + req1 + req2 + req3 + req4 > 25) { skip; }\n";
    Out += "  int value;\n";
    Out += "  KeAcquireSpinLock(&e->QueueLock);\n";
    append(Out, {"  value = e->", F.Name, ";\n"});
    Out += "  KeReleaseSpinLock(&e->QueueLock);\n";
    Out += "  if (value > 0) { skip; }\n";
    Out += "}\n\n";
    return;
  }
}

void emitAllocation(std::string &Out) {
  Out += "  ";
  Out += getDeviceExtensionName();
  Out += " *e = new ";
  Out += getDeviceExtensionName();
  Out += ";\n";
}

} // namespace

std::string kiss::drivers::buildFieldProgram(const DriverSpec &D,
                                             unsigned FieldIndex,
                                             HarnessVersion V) {
  assert(FieldIndex < D.Fields.size() && "field index out of range");
  const FieldSpec &F = D.Fields[FieldIndex];
  RoutineNames N = routineNames(D, F);

  std::string Out;
  // A Table-1 field model is under 2.5 KB.
  Out.reserve(4096);
  append(Out, {"// Driver model: ", D.Name, ", field ", F.Name, " (",
               V == HarnessVersion::V1Unconstrained ? "unconstrained"
                                                    : "refined",
               " harness)\n"});
  Out += getDdkPrelude();
  Out += R"(
// Request accounting through a pointer: without the points-to analysis the
// *counter accesses must be probed against every int-typed race target.
int totalRequests = 0;

void RecordRequest(int *counter) {
  *counter = *counter + 1;
}

)";
  emitDeviceExtension(D, Out);
  emitFieldRoutines(D, F, Out);

  if (V == HarnessVersion::V1Unconstrained) {
    // Two threads, each nondeterministically calling a dispatch routine.
    append(Out, {"void __dispatch(", getDeviceExtensionName(), " *e) {\n"});
    append(Out, {"  choice { ", N.A, "(e); } or { ", N.B, "(e); }\n"});
    Out += "}\n\n";
    Out += "void main() {\n";
    emitAllocation(Out);
    Out += "  async __dispatch(e);\n";
    Out += "  __dispatch(e);\n";
    Out += "}\n";
    return Out;
  }

  // Refined harness: concurrent branches only for rule-compatible pairs,
  // plus the always-legal sequential execution.
  struct Pair {
    const std::string *X;
    const std::string *Y;
    IrpCategory CX;
    IrpCategory CY;
  };
  const Pair Pairs[] = {
      {&N.A, &N.B, F.CatA, F.CatB},
      {&N.A, &N.A, F.CatA, F.CatA},
      {&N.B, &N.B, F.CatB, F.CatB},
  };

  Out += "void main() {\n";
  emitAllocation(Out);
  Out += "  choice {\n";
  Out += "    // sequential execution is always permitted\n";
  append(Out, {"    ", N.A, "(e);\n"});
  append(Out, {"    ", N.B, "(e);\n"});
  Out += "  }";
  for (const Pair &Pr : Pairs) {
    if (!mayRunConcurrently(Pr.CX, Pr.CY, D.NoConcurrentIoctls))
      continue;
    Out += " or {\n";
    append(Out, {"    async ", *Pr.X, "(e);\n"});
    append(Out, {"    ", *Pr.Y, "(e);\n"});
    Out += "  }";
  }
  Out += "\n}\n";
  return Out;
}

std::string kiss::drivers::buildFullProgram(const DriverSpec &D,
                                            HarnessVersion V) {
  std::string Out = "// Full driver model: " + D.Name + "\n";
  Out += getDdkPrelude();
  Out += R"(
int totalRequests = 0;

void RecordRequest(int *counter) {
  *counter = *counter + 1;
}

)";
  emitDeviceExtension(D, Out);

  std::map<IrpCategory, std::vector<std::string>> ByCategory;
  for (const FieldSpec &F : D.Fields) {
    emitFieldRoutines(D, F, Out);
    RoutineNames N = routineNames(D, F);
    ByCategory[F.CatA].push_back(N.A);
    ByCategory[F.CatB].push_back(N.B);
  }

  const char *Dev = getDeviceExtensionName();

  if (V == HarnessVersion::V1Unconstrained) {
    append(Out, {"void __dispatch(", Dev, " *e) {\n"});
    bool First = true;
    for (const auto &[Cat, Routines] : ByCategory) {
      (void)Cat;
      for (const std::string &R : Routines) {
        Out += First ? "  choice { " : "  or { ";
        append(Out, {R, "(e); }\n"});
        First = false;
      }
    }
    Out += "}\n\n";
    Out += "void main() {\n";
    emitAllocation(Out);
    Out += "  async __dispatch(e);\n";
    Out += "  __dispatch(e);\n";
    Out += "}\n";
    return Out;
  }

  // Refined harness: one dispatcher per IRP category; concurrency only
  // between rule-compatible categories.
  for (const auto &[Cat, Routines] : ByCategory) {
    append(Out, {"void __dispatch_", categoryTag(Cat), "(", Dev, " *e) {\n"});
    bool First = true;
    for (const std::string &R : Routines) {
      Out += First ? "  choice { " : "  or { ";
      append(Out, {R, "(e); }\n"});
      First = false;
    }
    Out += "}\n\n";
  }

  Out += "void main() {\n";
  emitAllocation(Out);
  Out += "  choice {\n";
  Out += "    skip;   // the OS may also serialize everything\n";
  Out += "  }";
  for (const auto &[CA, RA] : ByCategory) {
    (void)RA;
    for (const auto &[CB, RB] : ByCategory) {
      (void)RB;
      if (CB < CA)
        continue;
      if (!mayRunConcurrently(CA, CB, D.NoConcurrentIoctls))
        continue;
      Out += " or {\n";
      append(Out, {"    async __dispatch_", categoryTag(CA), "(e);\n"});
      append(Out, {"    __dispatch_", categoryTag(CB), "(e);\n"});
      Out += "  }";
    }
  }
  Out += "\n}\n";
  return Out;
}
