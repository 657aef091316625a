//===- NodeMemory.cpp - Per-thread free lists for AST nodes ---------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
//
// Every check builds a few hundred Expr and Stmt nodes (parse, lowering,
// the transform) and frees them all when it ends, so the next check on
// the same thread asks for the same sizes again. Each thread keeps the
// blocks it frees on one list per size class and hands them out before
// calling the global allocator. Blocks are ordinary global allocations:
// a node freed on another thread just joins that thread's lists, and a
// thread's lists are given back when it exits.
//
//===----------------------------------------------------------------------===//

#include "lang/AST.h"

// Under AddressSanitizer every node goes to the global allocator, so ASan
// still traps a use of a freed node. Derived from the build only.
#if defined(__SANITIZE_ADDRESS__)
#define KISS_RECYCLE_NODES 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define KISS_RECYCLE_NODES 0
#else
#define KISS_RECYCLE_NODES 1
#endif
#else
#define KISS_RECYCLE_NODES 1
#endif

#include <new>

using namespace kiss::lang;

#if KISS_RECYCLE_NODES

namespace {

/// Sizes are rounded up to a multiple of Granule; larger nodes than
/// MaxRecycledSize are not recycled (no node class is that large today).
constexpr size_t Granule = 8;
constexpr size_t MaxRecycledSize = 128;
constexpr size_t NumClasses = MaxRecycledSize / Granule;

struct FreeBlock {
  FreeBlock *Next;
};

/// One thread's free lists. Trivially destructible and constant
/// initialized, so it is usable for the thread's whole life, even while
/// other thread-local objects are being destroyed.
struct FreeLists {
  FreeBlock *Head[NumClasses];
  size_t RetainedBytes;
  /// The thread-exit release is registered.
  bool Armed;
  /// The release ran: the thread is exiting and keeps nothing more.
  bool Closed;
};

thread_local FreeLists Lists{};

/// Node sizes are never 0.
size_t sizeClass(size_t Size) { return (Size - 1) / Granule; }

void releaseAll() {
  for (FreeBlock *&Head : Lists.Head)
    while (FreeBlock *B = Head) {
      Head = B->Next;
      ::operator delete(B);
    }
  Lists.RetainedBytes = 0;
}

/// Gives a thread's free lists back to the global allocator when the
/// thread exits.
struct ThreadExitRelease {
  ThreadExitRelease() = default;
  ThreadExitRelease(const ThreadExitRelease &) = delete;
  ThreadExitRelease &operator=(const ThreadExitRelease &) = delete;
  ~ThreadExitRelease() {
    releaseAll();
    Lists.Closed = true;
  }
};

void armThreadExitRelease() {
  static thread_local ThreadExitRelease Release;
  (void)Release;
  Lists.Armed = true;
}

} // namespace

void *kiss::lang::allocateNode(size_t Size) {
  if (Size > MaxRecycledSize)
    return ::operator new(Size);
  size_t C = sizeClass(Size);
  if (FreeBlock *B = Lists.Head[C]) {
    Lists.Head[C] = B->Next;
    Lists.RetainedBytes -= (C + 1) * Granule;
    return B;
  }
  return ::operator new((C + 1) * Granule);
}

void kiss::lang::deallocateNode(void *P, size_t Size) noexcept {
  if (!P)
    return;
  size_t C = sizeClass(Size);
  size_t Bytes = (C + 1) * Granule;
  if (Size > MaxRecycledSize || Lists.Closed ||
      Lists.RetainedBytes + Bytes > MaxRetainedNodeBytes) {
    ::operator delete(P);
    return;
  }
  if (!Lists.Armed)
    armThreadExitRelease();
  Lists.Head[C] = new (P) FreeBlock{Lists.Head[C]};
  Lists.RetainedBytes += Bytes;
}

size_t kiss::lang::retainedNodeBytes() { return Lists.RetainedBytes; }

#else // !KISS_RECYCLE_NODES

void *kiss::lang::allocateNode(size_t Size) { return ::operator new(Size); }

void kiss::lang::deallocateNode(void *P, size_t) noexcept {
  ::operator delete(P);
}

size_t kiss::lang::retainedNodeBytes() { return 0; }

#endif // KISS_RECYCLE_NODES
