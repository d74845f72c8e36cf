// LP bit-identity corpus. Every LP below is solved with the default
// algorithm; its status, iteration count, objective and every variable
// value are printed as hex floats (%a) and diffed byte for byte against a
// golden under tests/lp_corpus. Any change to what the simplex computes —
// one pivot more, one bit off in one value — shows here. Regenerate after
// an intentional change:
//   FARM_LP_REGEN=1 ./lp_golden_test
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "farm/system.h"
#include "farm/usecases.h"
#include "lp/simplex.h"
#include "placement/generator.h"
#include "placement/switch_lp.h"
#include "util/rng.h"

namespace farm {
namespace {

namespace fs = std::filesystem;
using placement::PinnedSeed;

using NamedLps = std::vector<std::pair<std::string, lp::Model>>;

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string solve_all(const NamedLps& lps) {
  std::ostringstream out;
  for (const auto& [name, model] : lps) {
    const lp::Solution s = lp::solve_lp(model);
    out << "lp " << name << " rows " << model.num_constraints() << " vars "
        << model.num_vars() << "\n"
        << "status " << static_cast<int>(s.status) << "\n"
        << "iterations " << s.simplex_iterations << "\n"
        << "objective " << hex(s.objective) << "\n";
    for (std::size_t j = 0; j < s.values.size(); ++j)
      out << "x" << j << " " << hex(s.values[j]) << "\n";
  }
  return out.str();
}

// Step 3 on one leaf of n FlowMon seeds: the leaf_density LP.
NamedLps flowmon(int n) {
  const auto leaf = placement::flowmon_leaf(n);
  std::vector<PinnedSeed> pinned;
  for (const auto& s : leaf.seeds) pinned.push_back({&s, 0});
  return {{"flowmon_n" + std::to_string(n),
           placement::build_switch_lp(leaf.sw, pinned, {}).model}};
}

// Every Table I use case installed once on the 4×16 fabric with 8 switch
// cores (the usecase_mix set-up), then one step-3 LP per switch over the
// seeds the placement put there.
struct UseCaseFabric {
  placement::PlacementProblem problem;
  placement::PlacementResult result;
};

const UseCaseFabric& use_case_fabric() {
  static const UseCaseFabric fabric = [] {
    core::FarmSystemConfig cfg;
    cfg.switch_config.cpu_cores = 8;
    core::FarmSystem farm(cfg);
    int i = 0;
    for (const auto& uc : core::all_use_cases())
      farm.install_task({"uc" + std::to_string(i++), uc.source, uc.machines,
                         uc.default_externals});
    return UseCaseFabric{farm.seeder().build_problem(),
                         farm.seeder().last_placement()};
  }();
  return fabric;
}

NamedLps use_case_step3() {
  const auto& f = use_case_fabric();
  std::map<std::string, const placement::SeedModel*> by_id;
  for (const auto& s : f.problem.seeds) by_id[s.id] = &s;
  NamedLps out;
  for (const auto& sw : f.problem.switches) {
    std::vector<PinnedSeed> pinned;
    for (const auto& e : f.result.placements)
      if (e.node == sw.node) pinned.push_back({by_id.at(e.seed), e.variant});
    if (pinned.empty()) continue;
    out.emplace_back("switch" + std::to_string(sw.node),
                     placement::build_switch_lp(sw, pinned, {}).model);
  }
  return out;
}

// The per-variant allocation LPs: every variant of every use-case seed
// and of a generated problem, inside a switch's capacity and inside the
// unbounded box min_utility uses.
NamedLps minimal_allocations() {
  std::vector<const placement::UtilityVariant*> variants;
  for (const auto& s : use_case_fabric().problem.seeds)
    for (const auto& v : s.variants) variants.push_back(&v);
  placement::GeneratorSpec spec;
  spec.n_switches = 4;
  spec.n_tasks = 10;
  spec.seeds_per_task = 3;
  spec.seed = 5;
  const auto generated = placement::generate_problem(spec);
  for (const auto& s : generated.seeds)
    for (const auto& v : s.variants) variants.push_back(&v);
  const almanac::ResourcesValue caps[] = {{4, 8192, 1024, 8},
                                          {1e9, 1e9, 1e9, 1e9}};
  NamedLps out;
  for (std::size_t i = 0; i < variants.size(); ++i)
    for (std::size_t c = 0; c < 2; ++c)
      out.emplace_back("variant" + std::to_string(i) + "_cap" +
                           std::to_string(c),
                       placement::minimal_allocation_lp(*variants[i], caps[c]));
  return out;
}

// Seeded random block-angular LPs: independent blocks of a few rows each,
// coupled by 2–4 linking rows, as the per-switch LPs couple per-seed blocks
// through capacities. Rows are built around a random point inside the
// bounds, so most are feasible; a few are not, and those statuses are
// pinned too.
lp::Model block_angular(std::uint64_t seed) {
  util::Rng rng(seed);
  lp::Model m;
  m.set_maximize(rng.next_bool(0.7));
  const auto blocks = rng.next_int(3, 12);
  std::vector<lp::VarId> all;
  std::vector<double> point;
  auto sense_rhs = [&](const std::vector<lp::Term>& terms) {
    double ax = 0;
    for (const auto& t : terms)
      ax += t.coeff * point[static_cast<std::size_t>(t.var)];
    const auto k = rng.next_int(0, 9);
    if (k < 6)
      return std::make_pair(lp::Sense::kLe, ax + rng.next_double(0, 2));
    if (k < 9)
      return std::make_pair(lp::Sense::kGe, ax - rng.next_double(0, 2));
    return std::make_pair(lp::Sense::kEq, ax);
  };
  for (std::int64_t b = 0; b < blocks; ++b) {
    std::vector<lp::VarId> vars;
    const auto nv = rng.next_int(2, 5);
    for (std::int64_t v = 0; v < nv; ++v) {
      const double lo = rng.next_bool(0.2) ? rng.next_double(0, 1) : 0;
      const double hi =
          rng.next_bool(0.8) ? lo + rng.next_double(0.5, 10) : lp::kInf;
      vars.push_back(m.add_continuous("x", lo, hi, rng.next_double(-1, 3)));
      point.push_back(hi < lp::kInf ? rng.next_double(lo, hi)
                                    : lo + rng.next_double(0, 5));
      all.push_back(vars.back());
    }
    const auto rows = rng.next_int(1, 4);
    for (std::int64_t r = 0; r < rows; ++r) {
      std::vector<lp::Term> terms;
      for (lp::VarId v : vars)
        if (rng.next_bool(0.7)) terms.push_back({v, rng.next_double(-2, 4)});
      if (terms.empty()) terms.push_back({vars.front(), 1});
      auto [sense, rhs] = sense_rhs(terms);
      m.add_constraint("block", std::move(terms), sense, rhs);
    }
  }
  const auto linking = rng.next_int(2, 4);
  for (std::int64_t r = 0; r < linking; ++r) {
    std::vector<lp::Term> terms;
    for (lp::VarId v : all)
      if (rng.next_bool(0.6)) terms.push_back({v, rng.next_double(0.1, 2)});
    if (terms.empty()) terms.push_back({all.front(), 1});
    auto [sense, rhs] = sense_rhs(terms);
    m.add_constraint("link", std::move(terms), sense, rhs);
  }
  return m;
}

NamedLps block_angulars() {
  NamedLps out;
  for (std::uint64_t seed = 1; seed <= 40; ++seed)
    out.emplace_back("seed" + std::to_string(seed), block_angular(seed));
  return out;
}

struct Group {
  std::string name;
  std::function<NamedLps()> lps;
};

std::vector<Group> groups() {
  std::vector<Group> out;
  for (int n : {1, 10, 50, 200, 400})
    out.push_back(
        {"flowmon_n" + std::to_string(n), [n] { return flowmon(n); }});
  out.push_back({"usecase_mix_step3", use_case_step3});
  out.push_back({"minimal_allocation", minimal_allocations});
  out.push_back({"block_angular", block_angulars});
  return out;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

class LpCorpus : public ::testing::TestWithParam<Group> {};

TEST_P(LpCorpus, MatchesGoldenBitForBit) {
  const Group& g = GetParam();
  const std::string got = solve_all(g.lps());
  const fs::path golden = fs::path(FARM_LP_CORPUS_DIR) / (g.name + ".golden");
  if (std::getenv("FARM_LP_REGEN")) {
    std::ofstream(golden, std::ios::binary) << got;
    GTEST_SKIP() << "regenerated " << golden;
  }
  ASSERT_TRUE(fs::exists(golden)) << "missing golden " << golden
                                  << " (run with FARM_LP_REGEN=1)";
  const std::string want = read_file(golden);
  if (got == want) return;
  // Report the first differing line and the LP it belongs to.
  std::istringstream a(got), b(want);
  std::string la, lb, lp_name;
  int line = 1;
  while (std::getline(a, la) && std::getline(b, lb) && la == lb) {
    if (la.rfind("lp ", 0) == 0) lp_name = la;
    ++line;
  }
  ADD_FAILURE() << g.name << ": differs at line " << line << " (in " << lp_name
                << ")\n  got:    " << la << "\n  golden: " << lb;
}

INSTANTIATE_TEST_SUITE_P(Corpus, LpCorpus, ::testing::ValuesIn(groups()),
                         [](const ::testing::TestParamInfo<Group>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace farm
