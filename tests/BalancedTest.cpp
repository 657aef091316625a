//===- BalancedTest.cpp - Theorem 1's balanced schedules ------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "ProgramGen.h"
#include "TestUtil.h"

#include "kiss/Balanced.h"
#include "kiss/Kiss.h"

using namespace kiss;
using namespace kiss::core;
using namespace kiss::test;

namespace {

using Sched = std::vector<uint32_t>;

TEST(BalancedScheduleTest, TrivialCases) {
  EXPECT_TRUE(isBalancedSchedule(Sched{}));
  EXPECT_TRUE(isBalancedSchedule(Sched{0}));
  EXPECT_TRUE(isBalancedSchedule(Sched{0, 0, 0}));
}

TEST(BalancedScheduleTest, NestedInterruptionsAreBalanced) {
  // t1 interrupts t0, runs to completion, t0 resumes.
  EXPECT_TRUE(isBalancedSchedule(Sched{0, 1, 1, 0}));
  // Nested: t2 interrupts t1 which interrupted t0.
  EXPECT_TRUE(isBalancedSchedule(Sched{0, 1, 2, 2, 1, 0}));
  // Sequential siblings between the spine's events.
  EXPECT_TRUE(isBalancedSchedule(Sched{0, 1, 1, 0, 2, 2, 0}));
}

TEST(BalancedScheduleTest, ThreadMayFinishWithoutSpineResuming) {
  // The suffix runs entirely in the interrupting thread.
  EXPECT_TRUE(isBalancedSchedule(Sched{0, 1, 1}));
}

TEST(BalancedScheduleTest, PingPongIsUnbalanced) {
  // t0 and t1 alternate twice: t1 resumes after t0 already resumed over
  // it — t1 was popped and may not reappear.
  EXPECT_FALSE(isBalancedSchedule(Sched{0, 1, 0, 1}));
  EXPECT_FALSE(isBalancedSchedule(Sched{1, 0, 1, 0}));
}

TEST(BalancedScheduleTest, RetiredSiblingMayNotReturn) {
  // t1 completes (t0 resumed), then t1 runs again.
  EXPECT_FALSE(isBalancedSchedule(Sched{0, 1, 0, 2, 1}));
}

TEST(BalancedScheduleTest, CrossingInterruptionsUnbalanced) {
  // t2 interrupts t1, then t1 resumes, then t2 resumes: crossing.
  EXPECT_FALSE(isBalancedSchedule(Sched{1, 2, 1, 2}));
}

//===----------------------------------------------------------------------===//
// The property: every KISS counterexample is a balanced execution
//===----------------------------------------------------------------------===//

class BalancedTraceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BalancedTraceTest, KissCounterexamplesAreBalanced) {
  GenOptions GO;
  GO.AssertSlack = 1;
  std::string Source = generateProgram(GetParam(), GO);
  auto C = compile(Source);
  ASSERT_TRUE(C) << Source;

  for (unsigned MaxTs : {0u, 1u, 2u}) {
    CheckConfig Opts;
    Opts.MaxTs = MaxTs;
    Opts.MaxStates = 500'000;
    KissReport R = core::check(*C.Program, Opts, C.Ctx->Diags);
    if (!R.foundError())
      continue;
    EXPECT_TRUE(isBalancedSchedule(scheduleOf(R.Trace)))
        << "unbalanced KISS trace at MaxTs=" << MaxTs << " for seed "
        << GetParam() << "\n"
        << formatConcurrentTrace(R.Trace, *C.Program, &C.Ctx->SM) << "\n"
        << Source;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, BalancedTraceTest,
                         ::testing::Range<uint64_t>(300, 340));

TEST(BalancedTraceTest, BluetoothCounterexampleIsBalanced) {
  auto C = compile(R"(
    struct DEVICE_EXTENSION { int pendingIo; bool stoppingFlag;
                              bool stoppingEvent; }
    bool stopped = false;
    int BCSP_IoIncrement(DEVICE_EXTENSION *e) {
      if (e->stoppingFlag) { return 0 - 1; }
      atomic { e->pendingIo = e->pendingIo + 1; }
      return 0;
    }
    void BCSP_IoDecrement(DEVICE_EXTENSION *e) {
      int pendingIo;
      atomic { e->pendingIo = e->pendingIo - 1; pendingIo = e->pendingIo; }
      if (pendingIo == 0) { e->stoppingEvent = true; }
    }
    void BCSP_PnpStop(DEVICE_EXTENSION *e) {
      e->stoppingFlag = true;
      BCSP_IoDecrement(e);
      assume(e->stoppingEvent);
      stopped = true;
    }
    void BCSP_PnpAdd(DEVICE_EXTENSION *e) {
      int status;
      status = BCSP_IoIncrement(e);
      if (status == 0) { assert(!stopped); }
      BCSP_IoDecrement(e);
    }
    void main() {
      DEVICE_EXTENSION *e = new DEVICE_EXTENSION;
      e->pendingIo = 1;
      async BCSP_PnpStop(e);
      BCSP_PnpAdd(e);
    }
  )");
  ASSERT_TRUE(C);
  CheckConfig Opts;
  Opts.MaxTs = 1;
  KissReport R = core::check(*C.Program, Opts, C.Ctx->Diags);
  ASSERT_TRUE(R.foundError());
  EXPECT_TRUE(isBalancedSchedule(scheduleOf(R.Trace)));
}

} // namespace
