//===- CFG.cpp ------------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "cfg/CFG.h"

#include "lang/ASTPrinter.h"
#include "lower/Lower.h"

#include <cassert>
#include <utility>

using namespace kiss;
using namespace kiss::cfg;
using namespace kiss::lang;

namespace kiss::cfg {

/// Builds the CFG of one function at a time. Nodes and edges collect in
/// scratch buffers that every function of a program reuses; each graph
/// then gets them in arrays of exactly its size.
class CFGBuilder {
public:
  FunctionCFG build(const FuncDecl &F) {
    Nodes.clear();
    Links.clear();
    FunctionCFG CFG;
    CFG.Func = &F;
    CFG.Entry = addNode(NodeKind::Nop, nullptr);
    // The synthetic exit: control falling off the end returns the default
    // value (void functions) — the engines special-case S == nullptr.
    CFG.Exit = addNode(NodeKind::Return, nullptr);
    uint32_t Tail = buildStmt(F.getBody(), CFG.Entry);
    link(Tail, CFG.Exit);

    // Group the edges by source node, each group in link order.
    Starts.assign(Nodes.size() + 1, 0);
    for (const auto &[From, To] : Links)
      ++Starts[From + 1];
    for (size_t I = 1; I != Starts.size(); ++I)
      Starts[I] += Starts[I - 1];
    CFG.Edges.resize(Links.size());
    for (const auto &[From, To] : Links)
      CFG.Edges[Starts[From]++] = To;
    // Starts[I] is now where node I's group ends.
    CFG.Nodes.assign(Nodes.begin(), Nodes.end());
    uint32_t Begin = 0;
    for (size_t I = 0; I != Nodes.size(); ++I) {
      SuccList &Succs = CFG.Nodes[I].Succs;
      Succs.Data = CFG.Edges.data() + Begin;
      Succs.Size = Starts[I] - Begin;
      Begin = Starts[I];
    }
    return CFG;
  }

private:
  uint32_t addNode(NodeKind Kind, const Stmt *S) {
    Node N;
    N.Kind = Kind;
    N.S = S;
    Nodes.push_back(N);
    return Nodes.size() - 1;
  }

  void link(uint32_t From, uint32_t To) { Links.emplace_back(From, To); }

  /// Appends the CFG of \p S after node \p Pred and returns the tail node
  /// from which execution continues.
  uint32_t buildStmt(const Stmt *S, uint32_t Pred) {
    switch (S->getKind()) {
    case StmtKind::Block: {
      uint32_t Cur = Pred;
      for (const StmtPtr &Sub : cast<BlockStmt>(S)->getStmts())
        Cur = buildStmt(Sub.get(), Cur);
      return Cur;
    }

    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      NodeKind Kind = isa<CallExpr>(A->getRHS()) ? NodeKind::Call
                                                 : NodeKind::Stmt;
      uint32_t N = addNode(Kind, S);
      link(Pred, N);
      return N;
    }

    case StmtKind::ExprStmt: {
      uint32_t N = addNode(NodeKind::Call, S);
      link(Pred, N);
      return N;
    }

    case StmtKind::Async:
    case StmtKind::Assert:
    case StmtKind::Assume:
    case StmtKind::Skip: {
      uint32_t N = addNode(NodeKind::Stmt, S);
      link(Pred, N);
      return N;
    }

    case StmtKind::Atomic: {
      uint32_t Begin = addNode(NodeKind::AtomicBegin, S);
      link(Pred, Begin);
      uint32_t Tail = buildStmt(cast<AtomicStmt>(S)->getBody(), Begin);
      uint32_t End = addNode(NodeKind::AtomicEnd, S);
      link(Tail, End);
      return End;
    }

    case StmtKind::Choice: {
      uint32_t Fork = addNode(NodeKind::Nop, S);
      link(Pred, Fork);
      uint32_t Join = addNode(NodeKind::Nop, nullptr);
      for (const StmtPtr &B : cast<ChoiceStmt>(S)->getBranches()) {
        uint32_t Tail = buildStmt(B.get(), Fork);
        link(Tail, Join);
      }
      return Join;
    }

    case StmtKind::Iter: {
      // Head has two alternatives: run the body (looping back) or exit.
      uint32_t Head = addNode(NodeKind::Nop, S);
      link(Pred, Head);
      uint32_t Exit = addNode(NodeKind::Nop, nullptr);
      uint32_t Tail = buildStmt(cast<IterStmt>(S)->getBody(), Head);
      link(Tail, Head);
      link(Head, Exit);
      return Exit;
    }

    case StmtKind::Return: {
      uint32_t N = addNode(NodeKind::Return, S);
      link(Pred, N);
      // Dead code after return still needs a predecessor; use a fresh
      // unreachable junction.
      return addNode(NodeKind::Nop, nullptr);
    }

    case StmtKind::Decl:
    case StmtKind::If:
    case StmtKind::While:
      assert(false && "non-core statement reached the CFG builder");
      return Pred;
    }
    return Pred;
  }

  std::vector<Node> Nodes;
  /// Edges (from, to) in link order.
  std::vector<std::pair<uint32_t, uint32_t>> Links;
  std::vector<uint32_t> Starts;
};

} // namespace kiss::cfg

ProgramCFG ProgramCFG::build(const Program &P) {
  assert(lower::isCoreProgram(P) && "CFG requires a core program");
  ProgramCFG Out;
  Out.Prog = &P;
  Out.Funcs.reserve(P.getFunctions().size());
  CFGBuilder B;
  for (const auto &F : P.getFunctions())
    Out.Funcs.push_back(B.build(*F));
  return Out;
}

uint32_t ProgramCFG::getTotalNodes() const {
  uint32_t Total = 0;
  for (const FunctionCFG &F : Funcs)
    Total += F.getNumNodes();
  return Total;
}

static const char *nodeKindName(NodeKind K) {
  switch (K) {
  case NodeKind::Nop:
    return "nop";
  case NodeKind::Stmt:
    return "stmt";
  case NodeKind::Call:
    return "call";
  case NodeKind::Return:
    return "return";
  case NodeKind::AtomicBegin:
    return "atomic-begin";
  case NodeKind::AtomicEnd:
    return "atomic-end";
  }
  return "?";
}

std::string FunctionCFG::dump(const SymbolTable &Syms) const {
  std::string Out = "digraph \"";
  Out += Syms.str(Func->getName());
  Out += "\" {\n";
  for (uint32_t I = 0, E = Nodes.size(); I != E; ++I) {
    const Node &N = Nodes[I];
    std::string Label = std::to_string(I);
    Label += ": ";
    Label += nodeKindName(N.Kind);
    if (N.S && (N.Kind == NodeKind::Stmt || N.Kind == NodeKind::Call ||
                N.Kind == NodeKind::Return)) {
      std::string Text = lang::printStmt(N.S, Syms);
      // Single-line, escaped label.
      std::string OneLine;
      for (char C : Text) {
        if (C == '\n') {
          OneLine += ' ';
        } else if (C == '"') {
          OneLine += "\\\"";
        } else {
          OneLine += C;
        }
      }
      Label += " ";
      Label += OneLine;
    }
    Out += "  n" + std::to_string(I) + " [label=\"" + Label + "\"];\n";
    for (uint32_t Succ : N.Succs)
      Out += "  n" + std::to_string(I) + " -> n" + std::to_string(Succ) +
             ";\n";
  }
  Out += "}\n";
  return Out;
}
