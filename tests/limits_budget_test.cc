#include "psc/limits/budget.h"

#include <chrono>
#include <thread>

#include "gtest/gtest.h"
#include "psc/util/status.h"

namespace psc {
namespace {

using limits::Budget;
using limits::CancelToken;
using limits::StopReason;

TEST(BudgetTest, DefaultIsUnlimited) {
  const Budget budget;
  EXPECT_FALSE(budget.active());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(budget.Charge());
  EXPECT_FALSE(budget.Expired());
  EXPECT_EQ(budget.reason(), StopReason::kNone);
  EXPECT_EQ(budget.nodes_charged(), 0u);
  EXPECT_TRUE(budget.ToStatus().ok());
}

TEST(BudgetTest, NodeBudgetTripsAtTheBound) {
  const Budget budget = Budget::WithNodeBudget(10);
  EXPECT_TRUE(budget.active());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(budget.Charge()) << "charge " << i;
  }
  EXPECT_FALSE(budget.Charge());
  EXPECT_EQ(budget.reason(), StopReason::kNodeBudget);
  const Status status = budget.ToStatus();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("node budget"), std::string::npos);
  // The trip is sticky.
  EXPECT_FALSE(budget.Charge());
  EXPECT_TRUE(budget.Expired());
}

TEST(BudgetTest, WeightedChargesCountAgainstTheBudget) {
  const Budget budget = Budget::WithNodeBudget(100);
  EXPECT_TRUE(budget.Charge(60));
  EXPECT_TRUE(budget.Charge(40));
  EXPECT_FALSE(budget.Charge(1));
  EXPECT_EQ(budget.reason(), StopReason::kNodeBudget);
}

TEST(BudgetTest, CopiesShareTripState) {
  const Budget budget = Budget::WithNodeBudget(5);
  const Budget copy = budget;
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(copy.Charge());
  EXPECT_FALSE(copy.Charge());
  // The original observes the copy's trip.
  EXPECT_FALSE(budget.Charge());
  EXPECT_EQ(budget.reason(), StopReason::kNodeBudget);
  EXPECT_GE(budget.nodes_charged(), 5u);
}

TEST(BudgetTest, DeadlineTripsViaExpired) {
  const Budget budget = Budget::WithDeadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(budget.Expired());
  EXPECT_EQ(budget.reason(), StopReason::kDeadline);
  const Status status = budget.ToStatus();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("deadline"), std::string::npos);
}

TEST(BudgetTest, DeadlineTripsViaChargeWithinOneStride) {
  const Budget budget = Budget::WithDeadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // A charge of a full stride polls the clock unconditionally.
  EXPECT_FALSE(budget.Charge(Budget::kDeadlineStride));
  EXPECT_EQ(budget.reason(), StopReason::kDeadline);
}

TEST(BudgetTest, UnitChargesDetectTheDeadlineWithinOneStride) {
  const Budget budget = Budget::WithDeadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  bool tripped = false;
  for (uint64_t i = 0; i <= Budget::kDeadlineStride && !tripped; ++i) {
    tripped = !budget.Charge();
  }
  EXPECT_TRUE(tripped);
  EXPECT_EQ(budget.reason(), StopReason::kDeadline);
}

TEST(BudgetTest, DeadlinePastTheClockRangeIsNoDeadline) {
  // 9.3e12 ms from now overflows the steady clock's nanosecond count; the
  // deadline must mean "none", not wrap into the past and trip at once.
  const Budget budget = Budget::WithDeadline(9'300'000'000'000);
  for (uint64_t i = 0; i < 4 * Budget::kDeadlineStride; ++i) {
    ASSERT_TRUE(budget.Charge()) << "charge " << i;
  }
  EXPECT_TRUE(budget.Charge(Budget::kDeadlineStride));
  EXPECT_FALSE(budget.Expired());
  EXPECT_EQ(budget.reason(), StopReason::kNone);
}

TEST(BudgetTest, CancelTripsAndCancelsTheToken) {
  const Budget budget = Budget::WithNodeBudget(1000);
  const CancelToken token = budget.token();
  EXPECT_FALSE(token.cancelled());
  budget.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_FALSE(budget.Charge());
  EXPECT_EQ(budget.reason(), StopReason::kCancelled);
  EXPECT_EQ(budget.ToStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(BudgetTest, CancellingTheTokenTripsTheBudget) {
  const Budget budget = Budget::WithNodeBudget(1000);
  budget.token().Cancel();
  EXPECT_FALSE(budget.Charge());
  EXPECT_EQ(budget.reason(), StopReason::kCancelled);
}

TEST(BudgetTest, StopReasonNames) {
  EXPECT_STREQ(limits::StopReasonToString(StopReason::kNone), "none");
  EXPECT_STREQ(limits::StopReasonToString(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(limits::StopReasonToString(StopReason::kNodeBudget),
               "node-budget");
  EXPECT_STREQ(limits::StopReasonToString(StopReason::kCancelled),
               "cancelled");
}

TEST(CancelTokenTest, CopiesShareTheFlag) {
  const CancelToken token;
  const CancelToken copy = token;
  EXPECT_FALSE(copy.cancelled());
  token.Cancel();
  EXPECT_TRUE(copy.cancelled());
}

}  // namespace
}  // namespace psc
