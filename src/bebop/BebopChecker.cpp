//===- BebopChecker.cpp ---------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "bebop/BebopChecker.h"

#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <unordered_map>
#include <unordered_set>

using namespace kiss;
using namespace kiss::bebop;

namespace {

/// A path edge ⟨(GE, LE) ⊢ (Node, G, L)⟩ within one function.
struct PathEdge {
  uint32_t Func = 0;
  uint64_t GE = 0;
  uint64_t LE = 0;
  uint32_t Node = 0;
  uint64_t G = 0;
  uint64_t L = 0;

  friend bool operator==(const PathEdge &A, const PathEdge &B) {
    return A.Func == B.Func && A.GE == B.GE && A.LE == B.LE &&
           A.Node == B.Node && A.G == B.G && A.L == B.L;
  }
};

struct PathEdgeHash {
  size_t operator()(const PathEdge &E) const {
    StableHasher H;
    H.addU32(E.Func);
    H.addU64(E.GE);
    H.addU64(E.LE);
    H.addU32(E.Node);
    H.addU64(E.G);
    H.addU64(E.L);
    return H.finish();
  }
};

/// How a path edge came to exist — enough to replay a concrete witness
/// backwards. Every referenced index is strictly smaller than the edge's
/// own (edges only ever point at already-recorded edges), so the
/// provenance graph is acyclic by construction.
struct Provenance {
  enum class Kind : uint8_t {
    Root,          ///< The program-entry seed.
    Step,          ///< Intra-procedural successor of Parent.
    CallEnter,     ///< Callee entry, seeded by the call edge Parent.
    SummaryResume, ///< Call-successor via a summary: Parent is the call
                   ///< edge, Exit the callee exit edge that produced the
                   ///< summary's output valuation.
  };
  Kind K = Kind::Root;
  size_t Parent = 0;
  size_t Exit = 0;
};

struct StoredEdge {
  PathEdge E;
  Provenance P;
};

/// A procedure-entry configuration (the summary key).
struct EntryKey {
  uint32_t Func = 0;
  uint64_t GE = 0;
  uint64_t LE = 0;

  friend bool operator<(const EntryKey &A, const EntryKey &B) {
    if (A.Func != B.Func)
      return A.Func < B.Func;
    if (A.GE != B.GE)
      return A.GE < B.GE;
    return A.LE < B.LE;
  }
};

/// A caller configuration waiting for a summary: the index of the caller's
/// path edge at the Call node.
struct CallSite {
  size_t AtCallIdx = 0;
};

/// Deterministic evaluation (Nondet only appears as a whole Assign RHS).
bool evalExpr(const BExpr &E, uint64_t G, uint64_t L) {
  switch (E.K) {
  case BExpr::Kind::Const:
    return E.A != 0;
  case BExpr::Kind::Global:
    return (G >> E.A) & 1;
  case BExpr::Kind::Local:
    return (L >> E.A) & 1;
  case BExpr::Kind::Not:
    return !evalExpr(E.Operands[0], G, L);
  case BExpr::Kind::Eq:
    return evalExpr(E.Operands[0], G, L) == evalExpr(E.Operands[1], G, L);
  case BExpr::Kind::Ne:
    return evalExpr(E.Operands[0], G, L) != evalExpr(E.Operands[1], G, L);
  case BExpr::Kind::And:
    return evalExpr(E.Operands[0], G, L) && evalExpr(E.Operands[1], G, L);
  case BExpr::Kind::Or:
    return evalExpr(E.Operands[0], G, L) || evalExpr(E.Operands[1], G, L);
  case BExpr::Kind::Nondet:
    assert(false && "nondet must be a whole assignment right-hand side");
    return false;
  }
  return false;
}

uint64_t setBit(uint64_t Bits, uint32_t Index, bool V) {
  return V ? (Bits | (1ull << Index)) : (Bits & ~(1ull << Index));
}

/// The saturation engine.
class Solver {
public:
  Solver(const BoolProgram &P, const BebopOptions &Opts)
      : P(P), Opts(Opts), Gov(Opts.Budget), NextSample(Opts.SampleEvery) {}

  BebopResult run() {
    seed(PathEdge{P.EntryFunc, P.InitialGlobals, 0,
                  P.Funcs[P.EntryFunc].Entry, P.InitialGlobals, 0},
         Provenance{Provenance::Kind::Root, 0, 0});

    while (Cursor != EdgeList.size()) {
      // The path-edge budget is checked against the count *before* the next
      // expansion, so a budget of N stops with exactly N edges recorded —
      // the same fencepost contract as the Heartbeat stride gate.
      if (EdgeList.size() >= Opts.MaxPathEdges) {
        Result.Outcome = BebopOutcome::BoundExceeded;
        Result.Bound = gov::BoundReason::States;
        Result.Message = "path-edge budget exceeded";
        break;
      }
      if (Gov.shouldStop(accountedBytes())) {
        Result.Outcome = BebopOutcome::BoundExceeded;
        Result.Bound = Gov.reason();
        Result.Message = Gov.message();
        break;
      }
      if (!process(Cursor++))
        break; // Assertion failure recorded.
      maybeSample();
    }

    Result.PathEdges = EdgeList.size();
    Result.SummaryEdges = NumSummaries;
    Result.Propagations = Propagations;
    Result.DedupHits = DedupHits;
    Result.MemoryBytes = accountedBytes();
    return Result;
  }

private:
  /// Edges recorded but not yet processed.
  size_t frontier() const { return EdgeList.size() - Cursor; }

  /// Approximate accounted memory: the edge list, the dedup index, and one
  /// index per frontier edge (the figure a separate worklist would cost;
  /// kept so reported bytes stay comparable). Deterministic for a fixed
  /// input (no allocator probing).
  uint64_t accountedBytes() const {
    return EdgeList.size() * (sizeof(StoredEdge) + sizeof(PathEdge) +
                              sizeof(size_t) + 2 * sizeof(void *)) +
           frontier() * sizeof(size_t);
  }

  void maybeSample() {
    if (!Opts.SampleEvery || EdgeList.size() < NextSample)
      return;
    NextSample += Opts.SampleEvery;
    Result.Series.push_back(BebopSample{EdgeList.size(), NumSummaries,
                                        Propagations, DedupHits,
                                        frontier(), accountedBytes()});
  }

  /// Records \p E (if new) with provenance \p Prov; new edges are
  /// processed in recording order.
  /// \returns the edge's index either way.
  size_t seed(const PathEdge &E, const Provenance &Prov) {
    ++Propagations;
    auto [It, Inserted] = Index.try_emplace(E, EdgeList.size());
    if (Inserted) {
      EdgeList.push_back(StoredEdge{E, Prov});
      Result.FrontierPeak =
          std::max<uint64_t>(Result.FrontierPeak, frontier());
    } else {
      ++DedupHits;
    }
    return It->second;
  }

  void propagate(size_t ParentIdx, uint32_t Node, uint64_t G, uint64_t L) {
    const PathEdge &E = EdgeList[ParentIdx].E;
    seed(PathEdge{E.Func, E.GE, E.LE, Node, G, L},
         Provenance{Provenance::Kind::Step, ParentIdx, 0});
  }

  /// Appends (in reverse execution order) the steps from edge \p Idx back
  /// to, and including, the entry edge of its own call context. Summary
  /// reuses splice the tabulated callee path recursively. \returns the
  /// index of the entry edge reached.
  size_t emitSegment(size_t Idx, std::vector<BebopTraceStep> &Rev) const {
    while (true) {
      const StoredEdge &SE = EdgeList[Idx];
      Rev.push_back(BebopTraceStep{SE.E.Func, SE.E.Node});
      switch (SE.P.K) {
      case Provenance::Kind::Root:
      case Provenance::Kind::CallEnter:
        return Idx;
      case Provenance::Kind::Step:
        Idx = SE.P.Parent;
        break;
      case Provenance::Kind::SummaryResume:
        // The callee's path, exit back to entry — then continue from the
        // call edge in this caller (NOT the entry edge's recorded caller,
        // which may be a different call site sharing the entry
        // configuration).
        emitSegment(SE.P.Exit, Rev);
        Idx = SE.P.Parent;
        break;
      }
    }
  }

  /// Reconstructs the witness ending at edge \p ErrIdx.
  std::vector<BebopTraceStep> reconstruct(size_t ErrIdx) const {
    std::vector<BebopTraceStep> Rev;
    size_t At = emitSegment(ErrIdx, Rev);
    // Cross into callers until the program-entry seed.
    while (EdgeList[At].P.K == Provenance::Kind::CallEnter)
      At = emitSegment(EdgeList[At].P.Parent, Rev);
    std::reverse(Rev.begin(), Rev.end());
    return Rev;
  }

  /// \returns false when an assertion failure ends the search.
  bool process(size_t Idx) {
    const PathEdge E = EdgeList[Idx].E;
    const BFunction &F = P.Funcs[E.Func];
    const BNode &N = F.Nodes[E.Node];

    switch (N.K) {
    case BNode::Kind::Nop:
      for (uint32_t S : N.Succs)
        propagate(Idx, S, E.G, E.L);
      return true;

    case BNode::Kind::Assign: {
      bool Values[2];
      unsigned NumValues;
      if (N.Expr.K == BExpr::Kind::Nondet) {
        Values[0] = false;
        Values[1] = true;
        NumValues = 2;
      } else {
        Values[0] = evalExpr(N.Expr, E.G, E.L);
        NumValues = 1;
      }
      for (unsigned I = 0; I != NumValues; ++I) {
        uint64_t G = E.G;
        uint64_t L = E.L;
        if (N.IsGlobalTarget)
          G = setBit(G, N.Target, Values[I]);
        else
          L = setBit(L, N.Target, Values[I]);
        for (uint32_t S : N.Succs)
          propagate(Idx, S, G, L);
      }
      return true;
    }

    case BNode::Kind::Assume:
      if (evalExpr(N.Expr, E.G, E.L))
        for (uint32_t S : N.Succs)
          propagate(Idx, S, E.G, E.L);
      return true;

    case BNode::Kind::Assert:
      if (!evalExpr(N.Expr, E.G, E.L)) {
        Result.Outcome = BebopOutcome::AssertionFailure;
        Result.Message = "assertion failed";
        Result.ErrorFunc = E.Func;
        Result.ErrorNode = E.Node;
        Result.Trace = reconstruct(Idx);
        return false;
      }
      for (uint32_t S : N.Succs)
        propagate(Idx, S, E.G, E.L);
      return true;

    case BNode::Kind::Call: {
      const BFunction &Callee = P.Funcs[N.Callee];
      uint64_t LE = 0;
      for (unsigned I = 0, A = N.Args.size(); I != A; ++I)
        LE = setBit(LE, I, evalExpr(N.Args[I], E.G, E.L));
      EntryKey Key{N.Callee, E.G, LE};

      CallSites[Key].push_back(CallSite{Idx});
      // Seed the callee...
      seed(PathEdge{N.Callee, E.G, LE, Callee.Entry, E.G, LE},
           Provenance{Provenance::Kind::CallEnter, Idx, 0});
      // ...and apply already-known summaries immediately.
      auto It = SummaryExits.find(Key);
      if (It != SummaryExits.end())
        for (const auto &[GOut, ExitIdx] : It->second)
          for (uint32_t S : N.Succs)
            seed(PathEdge{E.Func, E.GE, E.LE, S, GOut, E.L},
                 Provenance{Provenance::Kind::SummaryResume, Idx, ExitIdx});
      return true;
    }

    case BNode::Kind::Exit: {
      EntryKey Key{E.Func, E.GE, E.LE};
      auto &Outs = SummaryExits[Key];
      if (!Outs.emplace(E.G, Idx).second)
        return true; // Known summary.
      ++NumSummaries;
      // Resume every caller waiting on this entry configuration.
      auto It = CallSites.find(Key);
      if (It != CallSites.end()) {
        for (const CallSite &CS : It->second) {
          const StoredEdge &Caller = EdgeList[CS.AtCallIdx];
          const BNode &CallNode =
              P.Funcs[Caller.E.Func].Nodes[Caller.E.Node];
          for (uint32_t S : CallNode.Succs)
            seed(PathEdge{Caller.E.Func, Caller.E.GE, Caller.E.LE, S, E.G,
                          Caller.E.L},
                 Provenance{Provenance::Kind::SummaryResume, CS.AtCallIdx,
                            Idx});
        }
      }
      return true;
    }
    }
    return true;
  }

  const BoolProgram &P;
  const BebopOptions &Opts;
  gov::Governor Gov;
  BebopResult Result;
  /// Insertion-ordered edges with provenance; Index deduplicates.
  std::vector<StoredEdge> EdgeList;
  std::unordered_map<PathEdge, size_t, PathEdgeHash> Index;
  /// The next edge to process: EdgeList is the worklist, FIFO by index.
  size_t Cursor = 0;
  /// Summaries with the exit edge that first produced each output
  /// valuation: Func × entry config → { globals-out → exit edge index }.
  std::map<EntryKey, std::map<uint64_t, size_t>> SummaryExits;
  std::map<EntryKey, std::vector<CallSite>> CallSites;
  uint64_t NumSummaries = 0;
  uint64_t Propagations = 0;
  uint64_t DedupHits = 0;
  uint64_t NextSample = 0;
};

} // namespace

BebopResult kiss::bebop::check(const BoolProgram &P,
                               const BebopOptions &Opts) {
  assert(P.EntryFunc < P.Funcs.size() && "missing entry function");
  Solver S(P, Opts);
  return S.run();
}
