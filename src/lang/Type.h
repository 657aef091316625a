//===- Type.h - Types of the parallel modeling language ---------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types for the Figure-3 parallel language, extended with struct fields and
/// typed function values (both of which the paper says KISS handles).
/// Types are immutable and interned by a TypeContext, so Type* equality is
/// type equality.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_LANG_TYPE_H
#define KISS_LANG_TYPE_H

#include "support/Symbol.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace kiss::lang {

enum class TypeKind : uint8_t {
  Void,    ///< Only as a function return type.
  Bool,
  Int,
  Pointer, ///< T*
  Func,    ///< func<R(P1,...,Pn)>: a function-name value.
  Struct,  ///< A named record; fields live on the StructDecl.
};

/// An interned, immutable type. Compare with pointer equality.
class Type {
public:
  TypeKind getKind() const { return Kind; }

  bool isVoid() const { return Kind == TypeKind::Void; }
  bool isBool() const { return Kind == TypeKind::Bool; }
  bool isInt() const { return Kind == TypeKind::Int; }
  bool isPointer() const { return Kind == TypeKind::Pointer; }
  bool isFunc() const { return Kind == TypeKind::Func; }
  bool isStruct() const { return Kind == TypeKind::Struct; }

  /// Pointee of a pointer type.
  const Type *getPointee() const {
    assert(isPointer() && "not a pointer type");
    return Pointee;
  }

  /// Name of a struct type.
  Symbol getStructName() const {
    assert(isStruct() && "not a struct type");
    return StructName;
  }

  /// Return type of a func type.
  const Type *getReturnType() const {
    assert(isFunc() && "not a func type");
    return Pointee;
  }

  /// Parameter types of a func type.
  const std::vector<const Type *> &getParamTypes() const {
    assert(isFunc() && "not a func type");
    return Params;
  }

  /// Renders the type using \p Syms for struct names.
  std::string str(const SymbolTable &Syms) const;

private:
  friend class TypeContext;

  explicit Type(TypeKind Kind) : Kind(Kind) {}

  TypeKind Kind;
  /// Pointee for Pointer, return type for Func, null otherwise.
  const Type *Pointee = nullptr;
  Symbol StructName;
  std::vector<const Type *> Params;
};

/// Owns and interns all Type instances for one analysis session.
class TypeContext {
public:
  TypeContext();

  const Type *getVoidType() const { return VoidTy; }
  const Type *getBoolType() const { return BoolTy; }
  const Type *getIntType() const { return IntTy; }

  /// Interns the pointer type \p Pointee*.
  const Type *getPointerType(const Type *Pointee);

  /// Interns the struct type named \p Name.
  const Type *getStructType(Symbol Name);

  /// Interns the function-value type with the given signature.
  const Type *getFuncType(const Type *Ret,
                          std::vector<const Type *> Params);

private:
  std::deque<Type> Storage;
  const Type *VoidTy;
  const Type *BoolTy;
  const Type *IntTy;
  std::map<const Type *, const Type *> PointerTypes;
  std::map<Symbol, const Type *> StructTypes;
  /// A func signature, compared without building a key.
  struct FuncSig {
    const Type *Ret;
    std::span<const Type *const> Params;
  };
  /// Orders func types by (return type, parameter types); transparent, so
  /// a FuncSig looks a type up.
  struct FuncSigLess {
    using is_transparent = void;
    static FuncSig sig(const Type *T) {
      return {T->getReturnType(), T->getParamTypes()};
    }
    static FuncSig sig(FuncSig S) { return S; }
    template <typename L, typename R>
    bool operator()(const L &A, const R &B) const {
      FuncSig X = sig(A), Y = sig(B);
      std::less<const Type *> Less;
      if (X.Ret != Y.Ret)
        return Less(X.Ret, Y.Ret);
      return std::lexicographical_compare(X.Params.begin(), X.Params.end(),
                                          Y.Params.begin(), Y.Params.end(),
                                          Less);
    }
  };
  std::set<const Type *, FuncSigLess> FuncTypes;
};

} // namespace kiss::lang

#endif // KISS_LANG_TYPE_H
