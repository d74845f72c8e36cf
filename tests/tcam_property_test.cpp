// TCAM index property test: random add/remove/clear sequences against a
// linear reference model of the TCAM's lookup semantics.
//
// The model keeps rules in installation order and answers every query by
// scanning them, comparing patterns by canonical key — the semantics the
// indexed asic::Tcam must reproduce exactly: find(pattern) is the oldest
// matching rule, rules() keeps installation order, ids keep rising across
// clear(), and used/free_space count per region.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "asic/tcam.h"
#include "util/rng.h"

namespace farm::asic {
namespace {

using net::Filter;
using net::Prefix;

class LinearTcam {
 public:
  LinearTcam(int capacity, int monitoring_reserved)
      : capacity_{capacity - monitoring_reserved, monitoring_reserved} {}

  std::optional<RuleId> add_rule(TcamRule rule) {
    if (free_space(rule.region) <= 0) return std::nullopt;
    rule.id = next_id_++;
    rules_.push_back(rule);
    return rule.id;
  }
  int remove_rules(const Filter& pattern, TcamRegion region) {
    return static_cast<int>(std::erase_if(rules_, [&](const TcamRule& r) {
      return r.region == region &&
             r.pattern.canonical_key() == pattern.canonical_key();
    }));
  }
  bool remove_rule(RuleId id) {
    return std::erase_if(rules_,
                         [&](const TcamRule& r) { return r.id == id; }) > 0;
  }
  void clear() { rules_.clear(); }

  const TcamRule* find(RuleId id) const {
    for (const auto& r : rules_)
      if (r.id == id) return &r;
    return nullptr;
  }
  std::vector<RuleId> rule_ids(const Filter& pattern, TcamRegion region) const {
    std::vector<RuleId> out;
    for (const auto& r : rules_)
      if (r.region == region &&
          r.pattern.canonical_key() == pattern.canonical_key())
        out.push_back(r.id);
    return out;
  }
  int used(TcamRegion region) const {
    return static_cast<int>(std::count_if(
        rules_.begin(), rules_.end(),
        [&](const TcamRule& r) { return r.region == region; }));
  }
  int free_space(TcamRegion region) const {
    return capacity_[static_cast<int>(region)] - used(region);
  }
  const std::vector<TcamRule>& rules() const { return rules_; }

 private:
  int capacity_[2];
  RuleId next_id_ = 1;
  std::vector<TcamRule> rules_;
};

// A small pattern pool, so patterns repeat and regions fill. Entries 0 and
// 1 are equal filters built in different orders (distinct nodes, one
// canonical key).
std::vector<Filter> pattern_pool() {
  auto a = Filter::dst_ip(*Prefix::parse("10.1.0.0/16"));
  auto b = Filter::l4_port(443);
  return {Filter::conj(a, b),
          Filter::conj(b, a),
          a,
          Filter::src_ip(*Prefix::parse("10.2.3.4/32")),
          Filter::disj(a, Filter::proto(net::Proto::kUdp)),
          Filter::negate(b),
          Filter::iface(3)};
}

constexpr TcamRegion kRegions[] = {TcamRegion::kForwarding,
                                   TcamRegion::kMonitoring};

void expect_same(const Tcam& tcam, const LinearTcam& model,
                 const std::vector<Filter>& pool, RuleId max_id) {
  ASSERT_EQ(tcam.rules().size(), model.rules().size());
  for (std::size_t i = 0; i < model.rules().size(); ++i) {
    EXPECT_EQ(tcam.rules()[i].id, model.rules()[i].id);
    EXPECT_EQ(tcam.rules()[i].note, model.rules()[i].note);
  }
  for (TcamRegion region : kRegions) {
    EXPECT_EQ(tcam.used(region), model.used(region));
    EXPECT_EQ(tcam.free_space(region), model.free_space(region));
    for (const Filter& p : pool) {
      EXPECT_EQ(tcam.rule_ids(p, region), model.rule_ids(p, region));
      const TcamRule* got = tcam.find(p, region);
      auto want = model.rule_ids(p, region);
      if (want.empty()) {
        EXPECT_EQ(got, nullptr);
      } else {
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got->id, want.front());  // the oldest rule wins
      }
    }
  }
  for (RuleId id = 0; id <= max_id + 1; ++id) {
    const TcamRule* got = tcam.find(id);
    const TcamRule* want = model.find(id);
    ASSERT_EQ(got == nullptr, want == nullptr) << "id " << id;
    if (got) {
      EXPECT_EQ(got->id, id);
      EXPECT_EQ(got->note, want->note);
      EXPECT_EQ(got->region, want->region);
    }
  }
}

TEST(TcamIndexProperty, MatchesLinearModel) {
  const auto pool = pattern_pool();
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    Tcam tcam(20, 12);
    LinearTcam model(20, 12);
    RuleId max_id = 0;
    for (int step = 0; step < 300; ++step) {
      const auto roll = rng.next_below(100);
      const Filter& pattern = pool[rng.next_below(pool.size())];
      const TcamRegion region = kRegions[rng.next_below(2)];
      if (roll < 55) {
        TcamRule r;
        r.pattern = pattern;
        r.region = region;
        r.note = "n" + std::to_string(step);
        auto got = tcam.add_rule(r);
        auto want = model.add_rule(r);
        ASSERT_EQ(got, want);
        if (got) max_id = std::max(max_id, *got);
      } else if (roll < 80) {
        // Any id ever handed out (possibly already gone) or a fresh one.
        const RuleId id = rng.next_below(max_id + 2);
        ASSERT_EQ(tcam.remove_rule(id), model.remove_rule(id));
      } else if (roll < 97) {
        ASSERT_EQ(tcam.remove_rules(pattern, region),
                  model.remove_rules(pattern, region));
      } else {
        tcam.clear();
        model.clear();
      }
      expect_same(tcam, model, pool, max_id);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(TcamIndexProperty, IdsKeepRisingAcrossClear) {
  Tcam tcam(8, 4);
  TcamRule r;
  r.pattern = Filter::l4_port(80);
  auto first = tcam.add_rule(r);
  tcam.clear();
  auto second = tcam.add_rule(r);
  ASSERT_TRUE(first && second);
  EXPECT_GT(*second, *first);
  EXPECT_EQ(tcam.find(*first), nullptr);
  EXPECT_EQ(tcam.find(r.pattern, TcamRegion::kMonitoring)->id, *second);
}

}  // namespace
}  // namespace farm::asic
