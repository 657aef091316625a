//===- GovernorTest.cpp ---------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "support/Governor.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace kiss::gov;

namespace {

TEST(GovernorTest, DefaultBudgetNeverTrips) {
  RunBudget B;
  EXPECT_FALSE(B.enabled());
  Governor G(B);
  for (int I = 0; I < 100000; ++I)
    EXPECT_FALSE(G.shouldStop(/*MemoryBytes=*/1ull << 40));
  EXPECT_EQ(G.reason(), BoundReason::None);
  EXPECT_TRUE(G.message().empty());
}

TEST(GovernorTest, CancellationToken) {
  CancellationToken T;
  EXPECT_FALSE(T.isCancelled());
  T.requestCancel();
  EXPECT_TRUE(T.isCancelled());
  T.requestCancel(); // Idempotent.
  EXPECT_TRUE(T.isCancelled());
}

TEST(GovernorTest, InjectedTripIsDeterministic) {
  RunBudget B;
  B.TripAtTick = 5;
  B.TripReason = BoundReason::Memory;
  Governor G(B);
  for (int I = 0; I < 4; ++I)
    EXPECT_FALSE(G.shouldStop(0)) << "tick " << I;
  EXPECT_TRUE(G.shouldStop(0));
  EXPECT_EQ(G.reason(), BoundReason::Memory);
  EXPECT_NE(G.message().find("injection"), std::string::npos);
  // Once tripped, it stays tripped.
  EXPECT_TRUE(G.shouldStop(0));
  EXPECT_EQ(G.reason(), BoundReason::Memory);
}

TEST(GovernorTest, InjectedCancelRoutesThroughToken) {
  CancellationToken T;
  RunBudget B;
  B.Cancel = &T;
  B.CancelAtTick = 3;
  Governor G(B);
  EXPECT_FALSE(G.shouldStop(0));
  EXPECT_FALSE(G.shouldStop(0));
  EXPECT_TRUE(G.shouldStop(0));
  EXPECT_EQ(G.reason(), BoundReason::Cancelled);
  // The injection cancelled the shared token itself, exactly like SIGINT.
  EXPECT_TRUE(T.isCancelled());
}

TEST(GovernorTest, ExternalCancellationTrips) {
  CancellationToken T;
  RunBudget B;
  B.Cancel = &T;
  // Arm an (unreached) injection so the check stride drops to one tick and
  // the trip lands immediately after the cancel.
  B.TripAtTick = 1u << 30;
  Governor G(B);
  EXPECT_FALSE(G.shouldStop(0));
  T.requestCancel();
  EXPECT_TRUE(G.shouldStop(0));
  EXPECT_EQ(G.reason(), BoundReason::Cancelled);
}

TEST(GovernorTest, MemoryBudgetTrips) {
  RunBudget B;
  B.MemoryBytes = 1024;
  Governor G(B);
  // Under budget: survives well past one stride of ticks.
  for (int I = 0; I < 10000; ++I)
    ASSERT_FALSE(G.shouldStop(/*MemoryBytes=*/512));
  // Over budget: trips at the next slow-path check.
  bool Tripped = false;
  for (int I = 0; I < 5000 && !Tripped; ++I)
    Tripped = G.shouldStop(/*MemoryBytes=*/4096);
  EXPECT_TRUE(Tripped);
  EXPECT_EQ(G.reason(), BoundReason::Memory);
  EXPECT_NE(G.message().find("memory budget"), std::string::npos);
}

TEST(GovernorTest, DeadlineTrips) {
  RunBudget B;
  B.DeadlineSec = 1e-9; // Already expired by the first slow-path check.
  Governor G(B);
  bool Tripped = false;
  for (int I = 0; I < 5000 && !Tripped; ++I)
    Tripped = G.shouldStop(0);
  EXPECT_TRUE(Tripped);
  EXPECT_EQ(G.reason(), BoundReason::Deadline);
  EXPECT_NE(G.message().find("deadline"), std::string::npos);
}

TEST(GovernorTest, UnrepresentableDeadlineNeverTrips) {
  // 1e10 s (about 317 years) is past what steady_clock's 64-bit
  // nanosecond count holds from now, and infinity is further still:
  // neither deadline can expire.
  for (double Sec : {1e10, HUGE_VAL}) {
    RunBudget B;
    B.DeadlineSec = Sec;
    Governor G(B);
    for (int I = 0; I < 20000; ++I)
      ASSERT_FALSE(G.shouldStop(0)) << Sec << " tripped at tick " << I;
    EXPECT_EQ(G.reason(), BoundReason::None);
  }
}

TEST(GovernorTest, ReasonNamesRoundTrip) {
  const BoundReason All[] = {BoundReason::None,     BoundReason::States,
                             BoundReason::Deadline, BoundReason::Memory,
                             BoundReason::Cancelled, BoundReason::Fault};
  for (BoundReason R : All) {
    BoundReason Parsed;
    ASSERT_TRUE(parseBoundReason(getBoundReasonName(R), Parsed))
        << getBoundReasonName(R);
    EXPECT_EQ(Parsed, R);
  }
  BoundReason Unused;
  EXPECT_FALSE(parseBoundReason("not-a-reason", Unused));
  EXPECT_FALSE(parseBoundReason("", Unused));
}

} // namespace
