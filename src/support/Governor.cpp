//===- Governor.cpp -------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "support/Governor.h"

#include <cstdio>

using namespace kiss;
using namespace kiss::gov;

const char *gov::getBoundReasonName(BoundReason R) {
  switch (R) {
  case BoundReason::None:
    return "none";
  case BoundReason::States:
    return "states";
  case BoundReason::Deadline:
    return "deadline";
  case BoundReason::Memory:
    return "memory";
  case BoundReason::Cancelled:
    return "cancelled";
  case BoundReason::Fault:
    return "fault";
  }
  return "?";
}

bool gov::parseBoundReason(std::string_view Name, BoundReason &Out) {
  for (BoundReason R :
       {BoundReason::None, BoundReason::States, BoundReason::Deadline,
        BoundReason::Memory, BoundReason::Cancelled, BoundReason::Fault}) {
    if (Name == getBoundReasonName(R)) {
      Out = R;
      return true;
    }
  }
  return false;
}

Governor::Governor(const RunBudget &B)
    : Budget(B), Start(std::chrono::steady_clock::now()) {
  // Injected trips must land on an exact tick, so the stride drops to one
  // while injection is armed (tests only; never on production budgets).
  if (Budget.TripAtTick != 0 || Budget.CancelAtTick != 0)
    CheckStride = 1;
  TicksUntilCheck = CheckStride;
}

void Governor::trip(BoundReason R, std::string Msg) {
  Tripped = R;
  Message = std::move(Msg);
}

bool Governor::slowCheck(uint64_t MemoryBytes) {
  TicksUntilCheck = CheckStride;
  if (Tripped != BoundReason::None)
    return true;
  Ticks += CheckStride;

  // Injection first: a simulated SIGINT is indistinguishable downstream
  // from a real one, and an injected trip from a real budget trip.
  if (Budget.CancelAtTick != 0 && Ticks >= Budget.CancelAtTick &&
      Budget.Cancel)
    Budget.Cancel->requestCancel();
  if (Budget.Cancel && Budget.Cancel->isCancelled()) {
    trip(BoundReason::Cancelled, "run cancelled");
    return true;
  }
  if (Budget.TripAtTick != 0 && Ticks >= Budget.TripAtTick) {
    trip(Budget.TripReason,
         std::string(getBoundReasonName(Budget.TripReason)) +
             " budget tripped by injection at tick " + std::to_string(Ticks));
    return true;
  }

  // Elapsed time is compared in double seconds, never converted to clock
  // ticks, so a deadline past what steady_clock can represent (or an
  // infinite one) simply never trips.
  if (Budget.DeadlineSec > 0 &&
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
              .count() >= Budget.DeadlineSec) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "deadline of %gs exceeded",
                  Budget.DeadlineSec);
    trip(BoundReason::Deadline, Buf);
    return true;
  }
  if (Budget.MemoryBytes != 0 && MemoryBytes > Budget.MemoryBytes) {
    trip(BoundReason::Memory,
         "memory budget of " + std::to_string(Budget.MemoryBytes) +
             " bytes exceeded");
    return true;
  }
  return false;
}
