//===- Explorer.h - The one breadth-first exploration shell -----*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// rt::Explorer is the breadth-first search both explicit-state engines
/// run: the threaded-code engine and the stepThread engine, which is the
/// sequential interpreter and the interleaving checker (conc) in one. It
/// owns everything around a state's expansion, once:
///
///  * the visited-set StateStore and the parent links the counterexample
///    trace is rebuilt from (its ExploreWorkspace, borrowed from a
///    process-wide pool; see below);
///  * the entry-function check and the root state;
///  * the state budget, the resource governor, the heartbeat and the
///    time-series sampling at the top of the loop;
///  * FrontierPeak, DepthMax, the hot-path profile and the
///    ExplorationStats filled on every exit path;
///  * the exit switch over the expansion's StepResult::Kind.
///
/// An engine supplies only the expansion of the state whose id is at the
/// cursor. It is a template parameter of run(), so successor emission is a
/// direct (inlinable) call, never a virtual one. The engine provides
///
///   void root(const MachineState &Init, std::string &Key);
///       Encode the initial state into Key.
///   StepResult::Kind expand(uint32_t Id, Explorer::Fault &F);
///       Expand state Id, calling emit() once per successor and
///       attribute() once per executed step. Ok and Blocked continue the
///       search; any other kind ends the run with F's step, message and
///       location.
///
/// Ids are dense in first-seen order and every interned id is expanded
/// exactly once, in id order, so the FIFO queue is implicit: the frontier
/// is always Store.size() minus the states popped, and BFS layers are
/// contiguous id ranges, so depth needs no per-state array. Both engines
/// decode the state at the cursor from its key (store().key(Id)), so the
/// store is the only copy of every state and the memory budget counts
/// all of them.
///
/// The workspace pool. A KISS evaluation is hundreds of small searches
/// back to back, each growing a visited set of up to ~30 MB. Freeing it
/// hands the pages back to the kernel and the next search faults them all
/// in again, so an Explorer instead takes an ExploreWorkspace from a
/// process-wide pool when it is built and returns it when it is
/// destroyed. The pool holds only idle workspaces: its size is the peak
/// number of searches that ran at once. A workspace holding more than
/// MaxPooledBytes of capacity is freed instead of returned, so one huge
/// search cannot pin its footprint for the rest of the process. Reuse is
/// invisible in every result: StateStore::reset() replays a fresh store's
/// growth schedule, so ids and every count are those of a fresh store.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_SEQCHECK_EXPLORER_H
#define KISS_SEQCHECK_EXPLORER_H

#include "seqcheck/CommonOptions.h"
#include "seqcheck/Profile.h"
#include "seqcheck/StateStore.h"
#include "seqcheck/Step.h"
#include "support/Hashing.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

namespace kiss::rt {

/// Back-pointer for counterexample reconstruction, indexed by state id.
struct ParentLink {
  uint32_t Parent = seqcheck::StateStore::InvalidId; ///< InvalidId: root.
  TraceStep Step;
};

/// The memory one search grows: its visited set and parent links.
struct ExploreWorkspace {
  explicit ExploreWorkspace(StoreMode Mode) : Store(Mode) {}

  /// Bytes the search has in use: what the governor's memory budget and
  /// the heartbeat measure.
  size_t memoryBytes() const {
    return Store.memoryBytes() + Links.size() * sizeof(ParentLink);
  }
  /// Bytes of heap capacity held, used or not.
  size_t capacityBytes() const {
    return Store.capacityBytes() + Links.capacity() * sizeof(ParentLink);
  }

  seqcheck::StateStore Store;
  std::vector<ParentLink> Links;
};

class Explorer {
public:
  using StateStore = seqcheck::StateStore;

  /// Largest workspace capacity the pool keeps.
  static constexpr size_t MaxPooledBytes = size_t(64) << 20;

  /// Where and why an expansion ended the run (error and bound kinds).
  struct Fault {
    TraceStep Step; ///< The step that failed; ends the error trace.
    std::string Message;
    SourceLoc Loc;
  };

  /// Counter snapshot taken before a step, for profile attribution.
  struct Mark {
    uint64_t Transitions;
    uint64_t States;
  };

  Explorer(const lang::Program &P, const cfg::ProgramCFG &CFG,
           const ExploreOptions &Opts)
      : P(P), CFG(CFG), Opts(Opts), WS(acquireWorkspace(Opts.Store)),
        Store(WS->Store), Links(WS->Links) {
    if (Opts.Profile)
      Prof.enable(CFG);
  }
  ~Explorer() { releaseWorkspace(std::move(WS)); }
  Explorer(const Explorer &) = delete;
  Explorer &operator=(const Explorer &) = delete;

  /// Capacity held by the pool's idle workspaces, in bytes.
  static size_t pooledBytes();

  /// Runs the search to completion or to the first error or bound.
  template <class Engine> CheckResult run(Engine &E);

  /// Interns \p Key, a successor of state \p Parent reached by \p Step,
  /// under \p Hash, which must equal keyHash(Key).
  /// \returns true if it is a new state; its id is then the next one.
  bool emit(std::string_view Key, uint32_t Parent, const TraceStep &Step,
            uint64_t Hash) {
    assert(Hash == keyHash(Key) && "successor hash out of step with its key");
    ++R.TransitionsExplored;
    auto [Id, Inserted] = Store.internChild(Key, Parent, Hash);
    if (!Inserted)
      return false;
    assert(Id == Links.size() && "ids are dense in insertion order");
    (void)Id;
    Links.push_back(ParentLink{Parent, Step});
    return true;
  }

  Mark mark() const { return Mark{R.TransitionsExplored, Store.size()}; }

  /// Attributes the successors emitted since \p M to the CFG node \p Step
  /// ran (a blocked step counts as an expansion with none).
  void attribute(const TraceStep &Step, const Mark &M) {
    if (!Prof.on())
      return;
    const uint64_t Trans = R.TransitionsExplored - M.Transitions;
    Prof.bump(Step.Func, Step.Node, Trans, Trans - (Store.size() - M.States));
  }

  const StateStore &store() const { return Store; }

private:
  /// A reset workspace in \p Mode: an idle one from the pool, or new.
  static std::unique_ptr<ExploreWorkspace> acquireWorkspace(StoreMode Mode);
  /// Returns \p W to the pool, or frees it if it holds more than
  /// MaxPooledBytes.
  static void releaseWorkspace(std::unique_ptr<ExploreWorkspace> W);

  std::vector<TraceStep> rebuildTrace(uint32_t Id, const TraceStep &Last) {
    std::vector<TraceStep> Trace{Last};
    for (; Links[Id].Parent != StateStore::InvalidId; Id = Links[Id].Parent)
      Trace.push_back(Links[Id].Step);
    std::reverse(Trace.begin(), Trace.end());
    return Trace;
  }

  /// Fills the exploration side of the result; every exit goes through
  /// here, so StatesExplored is Store.size() on all of them.
  CheckResult finish() {
    const uint64_t Frontier = Store.size() - Popped;
    FrontierPeak = std::max(FrontierPeak, Frontier);
    R.StatesExplored = Store.size();
    const StateStore::IndexStats &IS = Store.indexStats();
    R.Exploration.DedupHits = IS.Hits;
    R.Exploration.HashProbes = IS.Probes;
    R.Exploration.KeyVerifies = IS.Verifies;
    R.Exploration.HashCollisions = IS.Collisions;
    R.Exploration.ArenaBytes = Store.arenaBytes();
    R.Exploration.IndexBytes = Store.indexBytes();
    R.Exploration.FrontierPeak = FrontierPeak;
    R.Exploration.DepthMax = DepthMax;
    if (Prof.on())
      R.Profile = Prof.take();
    if (Opts.Progress)
      Opts.Progress->finish(Store.size(), Frontier, WS->memoryBytes());
    return std::move(R);
  }

  CheckResult bound(gov::BoundReason Why, std::string Message,
                    SourceLoc Loc = SourceLoc()) {
    R.Outcome = CheckOutcome::BoundExceeded;
    R.Bound = Why;
    R.Message = std::move(Message);
    R.ErrorLoc = Loc;
    return finish();
  }

  /// Deterministic time-series point, keyed by state count: every engine
  /// reaches the loop top with the same counters at the same pop index,
  /// so only WallMs differs between them.
  void sample(uint64_t Frontier, std::chrono::steady_clock::time_point T0) {
    const StateStore::IndexStats &IS = Store.indexStats();
    ExplorationSample S;
    S.States = Store.size();
    S.Transitions = R.TransitionsExplored;
    S.DedupHits = IS.Hits;
    S.Frontier = Frontier;
    S.ArenaBytes = Store.arenaBytes();
    S.IndexBytes = Store.indexBytes();
    S.DepthMax = DepthMax;
    S.WallMs = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - T0)
                   .count();
    R.Series.push_back(S);
  }

  const lang::Program &P;
  const cfg::ProgramCFG &CFG;
  const ExploreOptions &Opts;
  std::unique_ptr<ExploreWorkspace> WS;
  StateStore &Store;              ///< WS->Store.
  std::vector<ParentLink> &Links; ///< WS->Links.
  ProfileCollector Prof;
  CheckResult R;
  uint64_t Popped = 0; ///< States handed to the engine so far.
  uint64_t FrontierPeak = 0;
  uint64_t DepthMax = 0;
};

template <class Engine> CheckResult Explorer::run(Engine &E) {
  const lang::FuncDecl *Entry = P.getEntryFunction();
  if (!Entry || Entry->getNumParams() != 0) {
    R.Outcome = CheckOutcome::RuntimeError;
    R.Message = "program has no parameterless entry function";
    return std::move(R);
  }
  const auto StartTime = std::chrono::steady_clock::now();
  {
    std::string Key;
    E.root(makeInitialState(P, CFG, P.getFunctionIndex(P.getEntryName())),
           Key);
    Store.intern(Key);
    Links.push_back(ParentLink{});
  }

  // The governor's fast path is one decrement-and-compare per expanded
  // state, like the heartbeat's tick.
  gov::Governor Gov(Opts.Budget);
  uint64_t NextSample = Opts.SampleEvery;
  uint32_t LayerEnd = 1; ///< First id of the layer after the cursor's.

  for (uint32_t Cursor = 0; Cursor < Store.size(); ++Cursor) {
    const uint64_t Frontier = Store.size() - Cursor;
    FrontierPeak = std::max(FrontierPeak, Frontier);
    if (Store.size() > Opts.MaxStates)
      return bound(gov::BoundReason::States,
                   "state budget of " + std::to_string(Opts.MaxStates) +
                       " states exceeded");
    if (Gov.shouldStop(WS->memoryBytes()))
      return bound(Gov.reason(), Gov.message());
    if (Opts.Progress)
      Opts.Progress->tick(Store.size(), Frontier, WS->memoryBytes());
    if (Opts.SampleEvery && Store.size() >= NextSample) {
      sample(Frontier, StartTime);
      NextSample = (Store.size() / Opts.SampleEvery + 1) * Opts.SampleEvery;
    }

    Popped = Cursor + 1;
    if (Cursor == LayerEnd) {
      // The whole previous layer is expanded, so the next one is
      // exactly the ids interned so far beyond this one's start.
      ++DepthMax;
      LayerEnd = static_cast<uint32_t>(Store.size());
    }

    Fault F;
    const StepResult::Kind K = E.expand(Cursor, F);
    switch (K) {
    case StepResult::Kind::Ok:
    case StepResult::Kind::Blocked:
      continue;
    case StepResult::Kind::AssertFailure:
    case StepResult::Kind::RuntimeError:
      R.Outcome = K == StepResult::Kind::AssertFailure
                      ? CheckOutcome::AssertionFailure
                      : CheckOutcome::RuntimeError;
      R.Message = std::move(F.Message);
      R.ErrorLoc = F.Loc;
      R.Trace = rebuildTrace(Cursor, F.Step);
      return finish();
    case StepResult::Kind::BoundExceeded:
      // A frame- or thread-count analysis bound.
      return bound(gov::BoundReason::States, std::move(F.Message), F.Loc);
    }
  }

  R.Outcome = CheckOutcome::Safe;
  return finish();
}

} // namespace kiss::rt

#endif // KISS_SEQCHECK_EXPLORER_H
