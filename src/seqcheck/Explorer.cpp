//===- Explorer.cpp - The exploration workspace pool ----------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "seqcheck/Explorer.h"

#include <mutex>

using namespace kiss;
using namespace kiss::rt;

namespace {

struct WorkspacePool {
  std::mutex Mu;
  std::vector<std::unique_ptr<ExploreWorkspace>> Idle;
  size_t Bytes = 0; ///< Sum of the idle workspaces' capacityBytes().
};

/// Never destroyed, so a search still unwinding on another thread at exit
/// never returns its workspace to a dead pool.
WorkspacePool &pool() {
  static WorkspacePool *P = new WorkspacePool;
  return *P;
}

} // namespace

std::unique_ptr<ExploreWorkspace> Explorer::acquireWorkspace(StoreMode Mode) {
  std::unique_ptr<ExploreWorkspace> W;
  {
    WorkspacePool &Pool = pool();
    std::lock_guard<std::mutex> Lock(Pool.Mu);
    if (Pool.Idle.empty())
      return std::make_unique<ExploreWorkspace>(Mode);
    W = std::move(Pool.Idle.back());
    Pool.Idle.pop_back();
    Pool.Bytes -= W->capacityBytes();
  }
  W->Store.reset(Mode);
  W->Links.clear();
  return W;
}

void Explorer::releaseWorkspace(std::unique_ptr<ExploreWorkspace> W) {
  const size_t Held = W->capacityBytes();
  if (Held > MaxPooledBytes)
    return; // Freed here, outside the lock.
  WorkspacePool &Pool = pool();
  std::lock_guard<std::mutex> Lock(Pool.Mu);
  Pool.Bytes += Held;
  Pool.Idle.push_back(std::move(W));
}

size_t Explorer::pooledBytes() {
  WorkspacePool &Pool = pool();
  std::lock_guard<std::mutex> Lock(Pool.Mu);
  return Pool.Bytes;
}
