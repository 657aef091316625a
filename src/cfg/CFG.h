//===- CFG.h - Control-flow graphs over core statements ---------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-function control-flow graphs over *core* programs (see
/// lower/Lower.h). Every node performs at most one core statement;
/// `choice` and `iter` become nondeterministic branch nodes, `atomic`
/// becomes a Begin/End bracket. Both model-checking engines and the KISS
/// trace mapper execute these graphs.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_CFG_CFG_H
#define KISS_CFG_CFG_H

#include "lang/AST.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace kiss::cfg {

enum class NodeKind : uint8_t {
  Nop,         ///< Junction (entry, choice fork/join, iter head).
  Stmt,        ///< Assign (non-call), assert, assume, async, or skip.
  Call,        ///< v = f(args), f(args), or indirect equivalents.
  Return,      ///< return [atom]; no successors.
  AtomicBegin, ///< Enter an atomic section.
  AtomicEnd,   ///< Leave an atomic section.
};

/// A node's successors: a read-only view into its function's edge array.
class SuccList {
public:
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  uint32_t operator[](size_t I) const { return Data[I]; }
  const uint32_t *begin() const { return Data; }
  const uint32_t *end() const { return Data + Size; }
  const uint32_t *data() const { return Data; }

private:
  friend class CFGBuilder;
  const uint32_t *Data = nullptr;
  uint32_t Size = 0;
};

/// One CFG node. Successor order is deterministic and meaningful only for
/// reproducibility (all successors of a multi-successor node are
/// nondeterministic alternatives).
struct Node {
  NodeKind Kind = NodeKind::Nop;
  /// The core statement this node performs (null for Nop/AtomicBegin/End
  /// and for the synthetic function-exit Return).
  const lang::Stmt *S = nullptr;
  SuccList Succs;
};

/// The CFG of one function. Node 0 is the entry; ExitNode is a synthetic
/// Return executed when control falls off the end of the body. Every
/// node's successors live in one edge array, grouped by node; the graph
/// can be moved but not copied, since the nodes point into that array.
class FunctionCFG {
public:
  FunctionCFG() = default;
  FunctionCFG(FunctionCFG &&) = default;
  FunctionCFG &operator=(FunctionCFG &&) = default;

  const lang::FuncDecl *getFunction() const { return Func; }

  uint32_t getEntry() const { return Entry; }
  uint32_t getExit() const { return Exit; }

  const Node &getNode(uint32_t Id) const { return Nodes[Id]; }
  uint32_t getNumNodes() const { return Nodes.size(); }

  /// Renders the graph in graphviz dot syntax.
  std::string dump(const kiss::SymbolTable &Syms) const;

private:
  friend class CFGBuilder;

  const lang::FuncDecl *Func = nullptr;
  std::vector<Node> Nodes;
  std::vector<uint32_t> Edges;
  uint32_t Entry = 0;
  uint32_t Exit = 0;
};

/// CFGs for every function of a program, indexed like
/// Program::getFunctions().
class ProgramCFG {
public:
  /// Builds the CFG of core program \p P. \p P must satisfy
  /// lower::isCoreProgram and must outlive the result.
  static ProgramCFG build(const lang::Program &P);

  const lang::Program &getProgram() const { return *Prog; }
  const FunctionCFG &getFunctionCFG(uint32_t FuncIndex) const {
    return Funcs[FuncIndex];
  }
  uint32_t getNumFunctions() const { return Funcs.size(); }

  /// Total node count across all functions (the paper's |C|).
  uint32_t getTotalNodes() const;

private:
  const lang::Program *Prog = nullptr;
  std::vector<FunctionCFG> Funcs;
};

} // namespace kiss::cfg

#endif // KISS_CFG_CFG_H
