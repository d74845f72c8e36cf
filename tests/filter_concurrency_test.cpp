// Filter's derived facts (canonical key, interface footprint and atoms)
// are computed lazily, once per expression node, and may be first read
// from several threads at once — placement and analysis share filters
// across the Combine pool. Carries the `combine` label so the thread
// sanitizer workflow covers the lazy cache.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/filter.h"
#include "util/pool.h"

namespace farm::net {
namespace {

// A fresh filter per round, so every round races on a cold cache.
Filter build(int round) {
  auto port = Filter::l4_port(static_cast<std::uint16_t>(1000 + round));
  auto dst = Filter::dst_ip(*Prefix::parse("10.1.0.0/16"));
  return Filter::disj(Filter::conj(dst, Filter::negate(port)),
                      Filter::conj(Filter::iface(round % 7), port));
}

TEST(FilterConcurrencyTest, SharedCanonicalKeyFromPoolThreads) {
  util::ThreadPool pool(8);
  for (int round = 0; round < 64; ++round) {
    const Filter shared = build(round);
    const std::string expected = build(round).canonical_key();
    struct Seen {
      const std::string* key = nullptr;
      int footprint = 0;
      std::size_t atoms = 0;
    };
    auto seen = pool.parallel_map<Seen>(64, [&](std::size_t i) {
      // Alternate which fact triggers the computation first.
      Seen s;
      if (i % 2) s.footprint = shared.iface_footprint();
      s.key = &shared.canonical_key();
      s.footprint = shared.iface_footprint();
      s.atoms = shared.iface_atoms().size();
      return s;
    });
    for (const Seen& s : seen) {
      EXPECT_EQ(s.key, &shared.canonical_key());  // computed once, shared
      EXPECT_EQ(*s.key, expected);
      EXPECT_EQ(s.footprint, 1);
      EXPECT_EQ(s.atoms, 1u);
    }
  }
}

}  // namespace
}  // namespace farm::net
