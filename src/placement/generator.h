// Random placement-problem generator for evaluation (§VI-D).
//
// Mirrors the paper's setup: up to 10 task archetypes (the Table I use
// cases), thousands of seeds across ~1000 switches, "with varying resource
// and placement needs". Utilities and constraints are drawn from the same
// shapes the util analysis produces for the shipped use cases; polling
// subjects come from a small pool so aggregation opportunities exist.
#pragma once

#include "placement/model.h"
#include "util/rng.h"

namespace farm::placement {

struct GeneratorSpec {
  int n_switches = 40;
  int n_tasks = 10;
  int seeds_per_task = 40;  // total seeds = n_tasks × seeds_per_task
  int candidates_per_seed = 4;
  // Fraction of seeds that poll a shared subject (aggregation pressure).
  double shared_poll_fraction = 0.5;
  std::uint64_t seed = 1;
};

PlacementProblem generate_problem(const GeneratorSpec& spec);

// One leaf holding `n` seeds shaped as the seeder models the fig5 /
// leaf_density FlowMon machine: vCPU ≥ 0.01, utility vCPU, and one poll of
// a /32 of its own every 10 ms (one 16-byte counter entry, in Mbps). The
// leaf is the default chassis with a 2048 + n monitoring TCAM bank.
struct DensityLeaf {
  SwitchModel sw;
  std::vector<SeedModel> seeds;  // variant 0 is the only one
};
DensityLeaf flowmon_leaf(int n);

}  // namespace farm::placement
