#include <gtest/gtest.h>

#include <cmath>

#include "pricing/baselines.h"

namespace pdm {
namespace {

TEST(ReservePriceBaseline, AlwaysPostsReserve) {
  ReservePriceBaseline baseline(3);
  Vector x{1.0, 0.0, 0.0};
  for (double q : {0.5, 2.0, 10.0}) {
    PostedPrice posted = baseline.PostPrice(x, q);
    EXPECT_DOUBLE_EQ(posted.price, q);
    EXPECT_FALSE(posted.exploratory);
    EXPECT_FALSE(posted.certain_no_sale);
    baseline.Observe(true);
  }
  EXPECT_EQ(baseline.counters().rounds, 3);
}

TEST(ReservePriceBaseline, EstimateIsVacuous) {
  ReservePriceBaseline baseline(2);
  ValueInterval interval = baseline.EstimateValueInterval({1.0, 0.0});
  EXPECT_TRUE(std::isinf(interval.lower));
  EXPECT_TRUE(std::isinf(interval.upper));
}

TEST(Baselines, NamesAreStable) {
  EXPECT_EQ(ReservePriceBaseline(1).name(), "risk-averse");
}

}  // namespace
}  // namespace pdm
