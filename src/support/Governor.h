//===- Governor.h - Run budgets and cooperative cancellation ----*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resource-governance layer behind the paper's 20-minute / 800 MB
/// per-check resource bound (§6): a RunBudget bundles a wall-clock
/// deadline, a byte budget, and a cooperative CancellationToken, and a
/// Governor enforces it from the BFS hot loops of both explicit-state
/// engines. A budget trip is never an exception or a crash — the checker
/// exits through its ordinary BoundExceeded path with a precise
/// BoundReason, so corpus runs degrade per field instead of aborting.
///
/// The fast path is one decrement-and-compare per expanded state (the same
/// stride trick as telemetry::Heartbeat); the clock, the byte budget, and
/// the token are consulted only every few thousand ticks. For tests, the
/// budget carries deterministic fault-injection knobs (trip at the Nth
/// tick, request cancellation at the Nth tick) so every exit path is
/// exercisable without wall-clock flakiness.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_SUPPORT_GOVERNOR_H
#define KISS_SUPPORT_GOVERNOR_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

namespace kiss::gov {

/// Why a run stopped short of exhaustive exploration. `States` covers the
/// structural analysis bounds (state budget, stack-depth and thread-count
/// cut-offs); `Fault` marks a task that threw and was isolated by the
/// corpus runner.
enum class BoundReason : uint8_t {
  None,      ///< The run completed; no bound tripped.
  States,    ///< State/stack/thread budget (SeqOptions::MaxStates, ...).
  Deadline,  ///< Wall-clock deadline (RunBudget::DeadlineSec).
  Memory,    ///< Byte budget (RunBudget::MemoryBytes).
  Cancelled, ///< Cooperative cancellation (SIGINT/SIGTERM or token).
  Fault,     ///< The task threw; degraded to a per-field result.
};

/// \returns a short lower-case name for \p R ("none", "deadline", ...).
const char *getBoundReasonName(BoundReason R);

/// Parses a name produced by getBoundReasonName. \returns false if \p Name
/// is not a reason name.
bool parseBoundReason(std::string_view Name, BoundReason &Out);

/// A cooperative cancellation flag, safe to set from a signal handler
/// (lock-free atomic) and cheap to poll from hot loops. Shared by every
/// check of a run: one SIGINT drains them all.
class CancellationToken {
public:
  void requestCancel() { Flag.store(true, std::memory_order_relaxed); }
  bool isCancelled() const { return Flag.load(std::memory_order_relaxed); }

private:
  std::atomic<bool> Flag{false};
};

/// The resource budget of one run. Zero/null fields mean "unbounded"; a
/// default-constructed budget never trips.
struct RunBudget {
  /// Wall-clock deadline in seconds from Governor construction (0 = none).
  double DeadlineSec = 0;
  /// Byte budget on the checker's accounted memory — the visited-set
  /// arena + index bytes (0 = none).
  uint64_t MemoryBytes = 0;
  /// If set, the run stops with BoundReason::Cancelled once the token is
  /// cancelled. Not owned.
  CancellationToken *Cancel = nullptr;

  // Deterministic fault injection (tests and the CLI's --inject-* flags).
  /// If nonzero, the governor trips at this tick count with TripReason,
  /// exactly as if the corresponding budget had been exceeded.
  uint64_t TripAtTick = 0;
  BoundReason TripReason = BoundReason::Deadline;
  /// If nonzero, the governor requests cancellation on Cancel at this tick
  /// count — a simulated SIGINT without the signal race.
  uint64_t CancelAtTick = 0;

  bool enabled() const {
    return DeadlineSec > 0 || MemoryBytes > 0 || Cancel != nullptr ||
           TripAtTick != 0 || CancelAtTick != 0;
  }
};

/// Enforces one RunBudget over one exploration. Construct at check start
/// (the deadline clock starts then) and call shouldStop() once per
/// expanded state; once tripped, reason()/message() describe why.
class Governor {
public:
  /// An unbounded governor: shouldStop() is one branch and never true.
  Governor() = default;

  explicit Governor(const RunBudget &B);

  /// \returns true once the budget is tripped. \p MemoryBytes is the
  /// caller's currently accounted memory. The fast path is a single
  /// decrement-and-compare; budgets are checked every Stride ticks
  /// (every tick while injection is armed, so injected trips land
  /// deterministically).
  bool shouldStop(uint64_t MemoryBytes) {
    if (--TicksUntilCheck != 0)
      return Tripped != BoundReason::None;
    return slowCheck(MemoryBytes);
  }

  /// Why the governor tripped (None if it has not).
  BoundReason reason() const { return Tripped; }

  /// Human-readable description of the trip (empty if not tripped).
  const std::string &message() const { return Message; }

private:
  bool slowCheck(uint64_t MemoryBytes);
  void trip(BoundReason R, std::string Msg);

  /// Ticks between budget checks on the slow path. Matches the heartbeat's
  /// clock-check stride so an expanded state costs one branch for each.
  static constexpr uint32_t Stride = 4096;

  RunBudget Budget;
  /// When the deadline clock started (construction).
  std::chrono::steady_clock::time_point Start{};
  uint64_t Ticks = 0;
  uint32_t TicksUntilCheck = Stride; ///< 1 while injection is armed.
  uint32_t CheckStride = Stride;
  BoundReason Tripped = BoundReason::None;
  std::string Message;
};

} // namespace kiss::gov

#endif // KISS_SUPPORT_GOVERNOR_H
