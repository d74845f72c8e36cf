// The seed VM shares one resolved AST between every seed of a Program, and
// sim/sweep runs such seeds on several pool threads; the symbol table is
// process-wide and filled by every parse. These cases drive both from
// pool threads and carry the `combine` label, so the thread sanitizer
// workflow checks that resolution happens before sharing (no lazily
// filled cache on shared nodes) and that interning is synchronized.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "almanac/compile.h"
#include "almanac/opt/replay.h"
#include "almanac/parser.h"
#include "util/pool.h"

#ifndef FARM_EXAMPLES_DIR
#error "FARM_EXAMPLES_DIR must point at examples/almanac"
#endif

namespace farm {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> example_sources() {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(FARM_EXAMPLES_DIR))
    if (e.path().extension() == ".alm") files.push_back(e.path());
  std::sort(files.begin(), files.end());
  std::vector<std::string> out;
  for (const auto& f : files) {
    std::ifstream in(f);
    std::ostringstream ss;
    ss << in.rdbuf();
    out.push_back(ss.str());
  }
  return out;
}

almanac::opt::ReplayOptions script(std::uint64_t seed) {
  almanac::opt::ReplayOptions o;
  o.seed = seed;
  o.streams = 1;
  o.events_per_stream = 40;
  return o;
}

TEST(VmConcurrencyTest, SeedsOfOneSharedProgramOnPoolThreads) {
  struct Shared {
    almanac::Program program;
    std::vector<almanac::CompiledMachine> machines;
  };
  std::vector<Shared> shared;
  for (const auto& src : example_sources()) {
    Shared s;
    s.program = almanac::parse_program(src);
    shared.push_back(std::move(s));
  }
  // Compile after the vector stopped moving: machines borrow the Program.
  std::vector<const almanac::CompiledMachine*> machines;
  for (auto& s : shared) {
    for (const auto& m : s.program.machines)
      s.machines.push_back(almanac::compile_machine(s.program, m.name));
    for (const auto& cm : s.machines) machines.push_back(&cm);
  }

  // Four seeds per machine, each with its own event script.
  constexpr std::size_t kSeedsPerMachine = 4;
  const std::size_t n = machines.size() * kSeedsPerMachine;
  auto run = [&](std::size_t i) {
    return almanac::opt::replay_transcript(*machines[i / kSeedsPerMachine],
                                           script(i % kSeedsPerMachine));
  };
  std::vector<std::vector<std::string>> sequential;
  for (std::size_t i = 0; i < n; ++i) sequential.push_back(run(i));

  util::ThreadPool pool(8);
  auto parallel = pool.parallel_map<std::vector<std::string>>(n, run);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(parallel[i], sequential[i]) << "seed " << i;
}

TEST(VmConcurrencyTest, ConcurrentParsesAgreeOnSymbols) {
  // Every task interns a shared name and names of its own while other
  // tasks do the same.
  util::ThreadPool pool(8);
  constexpr std::size_t kTasks = 64;
  struct Seen {
    almanac::Symbol shared_var = almanac::kNoSymbol;
    almanac::Symbol own_var = almanac::kNoSymbol;
  };
  auto seen = pool.parallel_map<Seen>(kTasks, [](std::size_t i) {
    const std::string own = "own" + std::to_string(i);
    almanac::Program p = almanac::parse_program(
        "machine M { place all; long sharedCounter = 0; long " + own +
        " = 1; state s { when (enter) do { sharedCounter = " + own +
        "; } } }");
    Seen s;
    s.shared_var = p.machines[0].vars[0].sym;
    s.own_var = p.machines[0].vars[1].sym;
    return s;
  });
  const almanac::Symbol shared = almanac::intern("sharedCounter");
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(seen[i].shared_var, shared);
    EXPECT_EQ(almanac::symbol_name(seen[i].own_var),
              "own" + std::to_string(i));
    for (std::size_t j = 0; j < i; ++j)
      EXPECT_NE(seen[i].own_var, seen[j].own_var);
  }
}

}  // namespace
}  // namespace farm
