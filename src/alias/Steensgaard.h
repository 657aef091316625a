//===- Steensgaard.h - Unification-based points-to analysis -----*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flow-insensitive, unification-based (Steensgaard-family) points-to
/// analysis over core programs, standing in for the Das-style analysis the
/// paper uses ([12] in the paper) to "optimize away most of the calls to
/// check_r and check_w". It is field-sensitive by (struct type, field)
/// and context-insensitive; all heap objects of one struct type are merged.
///
/// The race instrumenter asks a single sound may-question: can this pointer
/// dereference touch the monitored location? A "no" lets the probe be
/// omitted; "yes" keeps it (with a precise runtime guard, so imprecision
/// costs state space, never false errors).
///
//===----------------------------------------------------------------------===//

#ifndef KISS_ALIAS_STEENSGAARD_H
#define KISS_ALIAS_STEENSGAARD_H

#include "lang/AST.h"

#include <cstdint>
#include <cstddef>
#include <vector>

namespace kiss::alias {

/// An abstract memory location.
struct AbstractLoc {
  enum class Kind : uint8_t {
    Global, ///< A = global index.
    Local,  ///< A = function index, B = local slot.
    Field,  ///< A = struct symbol index, B = field index.
    Object, ///< A = struct symbol index (any instance of the struct).
    Ret,    ///< A = function index (the function's return value).
  };
  Kind K;
  uint32_t A = 0;
  uint32_t B = 0;

  friend bool operator==(const AbstractLoc &X, const AbstractLoc &Y) {
    return X.K == Y.K && X.A == Y.A && X.B == Y.B;
  }

  static AbstractLoc global(uint32_t Index) {
    return AbstractLoc{Kind::Global, Index, 0};
  }
  static AbstractLoc local(uint32_t Func, uint32_t Slot) {
    return AbstractLoc{Kind::Local, Func, Slot};
  }
  static AbstractLoc field(Symbol Struct, uint32_t FieldIndex) {
    return AbstractLoc{Kind::Field, Struct.getIndex(), FieldIndex};
  }
  static AbstractLoc object(Symbol Struct) {
    return AbstractLoc{Kind::Object, Struct.getIndex(), 0};
  }
  static AbstractLoc ret(uint32_t Func) {
    return AbstractLoc{Kind::Ret, Func, 0};
  }
};

/// The analysis result. Build once per core program, then query.
class PointsTo {
public:
  /// Runs the analysis on core program \p P (must outlive the result).
  static PointsTo analyze(const lang::Program &P);

  /// May a value stored in \p L point to location \p Target?
  bool mayPointTo(const AbstractLoc &L, const AbstractLoc &Target) const;

  /// May the pointer currently held by expression \p E (an atom of pointer
  /// type, evaluated inside function \p FuncIndex) point to \p Target?
  /// Conservatively true for expressions the analysis does not model.
  bool exprMayPointTo(const lang::Expr *E, uint32_t FuncIndex,
                      const AbstractLoc &Target) const;

  /// Number of distinct abstract locations (for stats/tests).
  unsigned getNumLocations() const { return Parent.size(); }

private:
  friend class Solver;

  //===--- Union-find over abstract location ids ---===//
  uint32_t find(uint32_t X) const;
  uint32_t idOf(const AbstractLoc &L) const; ///< ~0u if never mentioned.

  /// Abstract location to id, by open addressing with linear probing: a
  /// power of two in size, at most half full; Id ~0u marks a free slot.
  struct IdSlot {
    AbstractLoc Loc{AbstractLoc::Kind::Global};
    uint32_t Id = ~0u;
  };
  /// \returns the slot holding \p L, or the free slot where it belongs.
  /// IdSlots must not be empty.
  size_t slotOf(const AbstractLoc &L) const;
  /// Doubles IdSlots (or creates it) and reinserts every location.
  void growIdSlots();

  std::vector<IdSlot> IdSlots;
  mutable std::vector<uint32_t> Parent;
  /// For each representative: the representative it points to, or ~0u.
  std::vector<uint32_t> Pointee;
};

} // namespace kiss::alias

#endif // KISS_ALIAS_STEENSGAARD_H
