//===- Type.cpp -----------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "lang/Type.h"

using namespace kiss;
using namespace kiss::lang;

std::string Type::str(const SymbolTable &Syms) const {
  switch (Kind) {
  case TypeKind::Void:
    return "void";
  case TypeKind::Bool:
    return "bool";
  case TypeKind::Int:
    return "int";
  case TypeKind::Pointer:
    return Pointee->str(Syms) + "*";
  case TypeKind::Struct:
    return std::string(Syms.str(StructName));
  case TypeKind::Func: {
    std::string Out = "func<" + Pointee->str(Syms) + "(";
    for (unsigned I = 0, E = Params.size(); I != E; ++I) {
      if (I)
        Out += ", ";
      Out += Params[I]->str(Syms);
    }
    Out += ")>";
    return Out;
  }
  }
  return "<?>";
}

TypeContext::TypeContext() {
  Storage.push_back(Type(TypeKind::Void));
  VoidTy = &Storage.back();
  Storage.push_back(Type(TypeKind::Bool));
  BoolTy = &Storage.back();
  Storage.push_back(Type(TypeKind::Int));
  IntTy = &Storage.back();
}

const Type *TypeContext::getPointerType(const Type *Pointee) {
  auto It = PointerTypes.find(Pointee);
  if (It != PointerTypes.end())
    return It->second;
  Storage.push_back(Type(TypeKind::Pointer));
  Storage.back().Pointee = Pointee;
  PointerTypes.emplace(Pointee, &Storage.back());
  return &Storage.back();
}

const Type *TypeContext::getStructType(Symbol Name) {
  auto It = StructTypes.find(Name);
  if (It != StructTypes.end())
    return It->second;
  Storage.push_back(Type(TypeKind::Struct));
  Storage.back().StructName = Name;
  StructTypes.emplace(Name, &Storage.back());
  return &Storage.back();
}

const Type *TypeContext::getFuncType(const Type *Ret,
                                     std::vector<const Type *> Params) {
  auto It = FuncTypes.find(FuncSig{Ret, Params});
  if (It != FuncTypes.end())
    return *It;
  Storage.push_back(Type(TypeKind::Func));
  Storage.back().Pointee = Ret;
  Storage.back().Params = std::move(Params);
  FuncTypes.insert(&Storage.back());
  return &Storage.back();
}
