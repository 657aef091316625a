//===- FrontEndAllocGate.cpp - Heap allocations per field check -----------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
//
// Counts the global operator new calls the front end makes per Table-1
// field: model generation, parse and type check, lowering, the points-to
// analysis, the Figure-5 transform and the CFG, for each of the 417
// non-heavy V1 fields. One untimed warm-up pass runs first, so per-thread
// caches are as they are in a long-running process. The count is exact and
// repeatable, which a timing is not on a shared host; it exits 1 if the
// mean per field exceeds the bound.
//
//===----------------------------------------------------------------------===//

#include "alias/Steensgaard.h"
#include "cfg/CFG.h"
#include "drivers/Corpus.h"
#include "drivers/ModelGen.h"
#include "kiss/Transform.h"
#include "lower/Pipeline.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> Allocations{0};

void *countedAlloc(std::size_t Size) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *countedAlignedAlloc(std::size_t Size, std::align_val_t Align) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t A = static_cast<std::size_t>(Align);
  if (void *P = std::aligned_alloc(A, (Size + A - 1) / A * A))
    return P;
  throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return countedAlloc(Size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return countedAlloc(Size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new(std::size_t Size, std::align_val_t Align) {
  return countedAlignedAlloc(Size, Align);
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return countedAlignedAlloc(Size, Align);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

using namespace kiss;
using namespace kiss::drivers;

namespace {

/// The front end of one field check, as perfbench's traced op runs it.
/// \returns false if any stage fails.
bool frontEnd(const DriverSpec &D, unsigned FieldIdx) {
  std::string Source =
      buildFieldProgram(D, FieldIdx, HarnessVersion::V1Unconstrained);
  lower::CompilerContext Ctx;
  auto P = lower::parseAndCheck(Ctx, D.Name + "." + D.Fields[FieldIdx].Name,
                                Source);
  if (!P || !lower::lowerProgram(*P, Ctx.Diags))
    return false;
  alias::PointsTo AA = alias::PointsTo::analyze(*P);
  (void)AA;
  core::TransformOptions TO;
  TO.MaxTs = 0;
  core::RaceTarget Target = core::RaceTarget::field(
      Ctx.Syms.intern(getDeviceExtensionName()),
      Ctx.Syms.intern(D.Fields[FieldIdx].Name));
  auto Check = core::transformForRace(*P, Target, TO, Ctx.Diags);
  if (!Check)
    return false;
  cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*Check);
  return CFG.getTotalNodes() != 0;
}

/// Runs the front end over every non-heavy field. \returns the number of
/// fields, or 0 on a failure.
unsigned onePass(const std::vector<DriverSpec> &Corpus) {
  unsigned Fields = 0;
  for (const DriverSpec &D : Corpus)
    for (unsigned I = 0; I != D.Fields.size(); ++I) {
      if (D.Fields[I].Behavior == FieldBehavior::Heavy)
        continue;
      if (!frontEnd(D, I)) {
        std::fprintf(stderr, "front end failed on %s.%s\n", D.Name.c_str(),
                     D.Fields[I].Name.c_str());
        return 0;
      }
      ++Fields;
    }
  return Fields;
}

/// Half of the 2,270 allocations per field the front end made before its
/// allocation sites were cut.
constexpr uint64_t MaxPerField = 1135;

} // namespace

int main() {
  std::vector<DriverSpec> Corpus = getTable1Corpus();
  if (onePass(Corpus) == 0)
    return 1;
  uint64_t Before = Allocations.load();
  unsigned Fields = onePass(Corpus);
  uint64_t Count = Allocations.load() - Before;
  if (Fields != 417) {
    std::fprintf(stderr, "expected 417 non-heavy V1 fields, got %u\n", Fields);
    return 1;
  }
  double PerField = static_cast<double>(Count) / Fields;
  std::printf("front end: %llu allocations over %u fields, %.1f per field "
              "(bound %llu)\n",
              static_cast<unsigned long long>(Count), Fields, PerField,
              static_cast<unsigned long long>(MaxPerField));
  return PerField <= static_cast<double>(MaxPerField) ? 0 : 1;
}
