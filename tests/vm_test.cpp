// Seed VM transcript corpus (`ctest -L vm`).
//
// Every shipped example seed (examples/almanac, every machine of every
// file) and a fixed slice of generated Winnow machines is driven through
// the replay harness's deterministic host with a seeded event script:
// polls, probes, timers, messages from peers and the harvester, and
// reallocations. The transcript of each machine (host effects, handler
// errors, resident state, changed registers with exact float digits, the
// utility) is diffed byte for byte against its golden under
// tests/vm_corpus. Any change to what the interpreter computes, throws or
// asks of its host shows up here. Regenerate after an intentional change:
//   FARM_VM_REGEN=1 ./vm_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "almanac/builtins.h"
#include "almanac/compile.h"
#include "almanac/interp.h"
#include "almanac/opt/replay.h"
#include "almanac/parser.h"
#include "almanac/verify/absint.h"
#include "util/rng.h"
#include "winnow_gen.h"

#ifndef FARM_VM_CORPUS_DIR
#error "FARM_VM_CORPUS_DIR must point at tests/vm_corpus"
#endif
#ifndef FARM_EXAMPLES_DIR
#error "FARM_EXAMPLES_DIR must point at examples/almanac"
#endif

namespace farm {
namespace {

namespace fs = std::filesystem;

constexpr int kGeneratedMachines = 12;

struct Subject {
  std::string name;    // golden file stem
  std::string source;  // whole program
};

void PrintTo(const Subject& s, std::ostream* os) { *os << s.name; }

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<Subject> subjects() {
  std::vector<Subject> out;
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(FARM_EXAMPLES_DIR))
    if (e.path().extension() == ".alm") files.push_back(e.path());
  std::sort(files.begin(), files.end());
  for (const auto& f : files)
    out.push_back({f.stem().string(), read_file(f)});
  for (int i = 0; i < kGeneratedMachines; ++i) {
    testing::WinnowGen gen(util::derive_seed(0x7A11, i));
    out.push_back({"gen_" + std::to_string(i), gen.machine_source("Gen")});
  }
  return out;
}

almanac::opt::ReplayOptions script() {
  almanac::opt::ReplayOptions o;
  o.seed = 0xC0FFEE;
  o.streams = 2;
  o.events_per_stream = 120;
  return o;
}

// Transcript of every machine of the program, in declaration order.
std::string transcript(const std::string& source) {
  almanac::Program program = almanac::parse_program(source);
  std::string out;
  for (const auto& m : program.machines) {
    out += "machine " + m.name + "\n";
    almanac::CompiledMachine cm = almanac::compile_machine(program, m.name);
    for (const auto& line : almanac::opt::replay_transcript(cm, script()))
      out += line + "\n";
  }
  return out;
}

class VmCorpus : public ::testing::TestWithParam<Subject> {};

TEST_P(VmCorpus, TranscriptMatchesGolden) {
  const Subject& s = GetParam();
  std::string got = transcript(s.source);
  fs::path golden = fs::path(FARM_VM_CORPUS_DIR) / (s.name + ".transcript");
  if (std::getenv("FARM_VM_REGEN")) {
    std::ofstream(golden, std::ios::binary) << got;
    GTEST_SKIP() << "regenerated " << golden;
  }
  ASSERT_TRUE(fs::exists(golden)) << "missing golden " << golden
                                  << " (run with FARM_VM_REGEN=1)";
  std::string want = read_file(golden);
  if (got == want) return;
  // Report the first differing line, not two multi-kilobyte blobs.
  std::istringstream a(got), b(want);
  std::string la, lb;
  int line = 1;
  while (std::getline(a, la) && std::getline(b, lb) && la == lb) ++line;
  ADD_FAILURE() << s.name << ": transcript differs at line " << line
                << "\n  got:    " << la << "\n  golden: " << lb;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, VmCorpus, ::testing::ValuesIn(subjects()),
    [](const ::testing::TestParamInfo<Subject>& info) {
      std::string n = info.param.name;
      for (char& c : n)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

// The script exercises every event kind somewhere in the corpus, so the
// goldens cover the probe, timer and message paths, not only polls.
TEST(VmCorpus, ScriptCoversEveryEventKind) {
  std::string all;
  for (const auto& s : subjects()) all += transcript(s.source);
  for (const char* kind :
       {" poll ", " probe ", " time ", " recv harvester ", " realloc"})
    EXPECT_NE(all.find(kind), std::string::npos) << kind;
  EXPECT_NE(all.find("handler-err "), std::string::npos);
  EXPECT_NE(all.find("  tcam+ "), std::string::npos);
  EXPECT_NE(all.find("  send "), std::string::npos);
}

// --- Builtin argument kinds ----------------------------------------------------
// A mistyped builtin argument is a handler error (EvalError), never a
// process abort: the soil logs it and the seed keeps running.

class NullHost : public almanac::SeedHost {
 public:
  almanac::ResourcesValue resources() override { return {2, 512, 128, 4}; }
  void add_tcam_rule(const asic::TcamRule&) override {}
  void remove_tcam_rule(const net::Filter&) override {}
  std::optional<asic::TcamRule> get_tcam_rule(const net::Filter&) override {
    return std::nullopt;
  }
  void send(const almanac::Value&, const almanac::SendTarget&) override {}
  void exec(const std::string&) override {}
  void request_transit(const std::string&) override {}
  void trigger_updated(const std::string&) override {}
  std::int64_t switch_id() override { return 1; }
  std::int64_t now_ms() override { return 0; }
  void log(const std::string&) override {}
};

// Runs `stmt` as the enter handler of a machine with `long n = 3` and
// returns the EvalError text it raised, "" when it ran clean.
std::string run_stmt(const std::string& stmt) {
  almanac::Program program = almanac::parse_program(
      "machine M { place all; long n = 3; state s { when (enter) do { " +
      stmt + " } } }");
  almanac::CompiledMachine cm = almanac::compile_machine(program, "M");
  NullHost host;
  almanac::Interpreter interp(cm, &host);
  almanac::Env env;
  for (const auto* v : cm.vars) env.define(v->sym, interp.eval(*v->init, env));
  almanac::Env scope(&env);
  try {
    interp.exec(cm.states.front().events.front()->actions, scope);
  } catch (const almanac::EvalError& e) {
    return e.what();
  }
  return "";
}

TEST(VmBuiltinArgs, ListFamilyRejectsANonList) {
  for (const char* call :
       {"list_size(n)", "is_list_empty(n)", "list_get(n, 0)",
        "list_append(n, 1)", "list_clear(n)", "list_contains(n, 1)",
        "list_index_of(n, 1)", "list_set(n, 0, 1)"}) {
    std::string err = run_stmt(std::string("n = to_long(") + call + ");");
    std::string name(call, std::string(call).find('('));
    EXPECT_NE(err.find(name + ": expected list, got long"), std::string::npos)
        << call << " -> " << err;
  }
}

TEST(VmBuiltinArgs, StatsFamilyRejectsNonStats) {
  for (const char* call : {"stats_size(n)", "stats_iface(n, 0)",
                           "stats_bytes(n, 0)", "stats_packets(n, 0)",
                           "stats_subject(n, 0)"}) {
    std::string err = run_stmt(std::string("log(") + call + ");");
    std::string name(call, std::string(call).find('('));
    EXPECT_NE(err.find(name + ": expected stats, got long"), std::string::npos)
        << call << " -> " << err;
  }
}

TEST(VmBuiltinArgs, UnknownResourceFieldIsAnEvalError) {
  EXPECT_NE(run_stmt("n = to_long(res().foo);")
                .find("unknown resource field: foo"),
            std::string::npos);
  EXPECT_EQ(run_stmt("n = to_long(res().TCAM);"), "");
}

TEST(VmBuiltinArgs, SeedKeepsRunningAfterAMistypedCall) {
  almanac::Program program = almanac::parse_program(R"(
    machine M {
      place all;
      time t = 1.0;
      long n = 3;
      long ticks = 0;
      state s {
        when (t as x) do {
          ticks = ticks + 1;
          n = list_size(n);
        }
      }
    })");
  auto cm = almanac::compile_machine(program, "M");
  almanac::opt::ReplayOptions o;
  o.streams = 1;
  o.events_per_stream = 30;
  std::string all;
  for (const auto& line : almanac::opt::replay_transcript(cm, o))
    all += line + "\n";
  EXPECT_NE(all.find("list_size: expected list, got long"), std::string::npos);
  // Every timer event after the first failing one still ran the handler.
  EXPECT_NE(all.find("reg ticks = 2"), std::string::npos) << all;
}

// --- One builtin table ----------------------------------------------------------
// The interpreter, Winnow and the static estimators all key on the ids of
// almanac/builtins.h; these checks pin the table to what actually runs.

// `count` arguments for a call of `b`; a one-argument addTCAMRule takes a
// rule value.
std::string call_args(const almanac::BuiltinInfo& b, int count) {
  if (b.id == almanac::Builtin::kAddTCAMRule && count == 1)
    return "Rule { .pattern = port 80 }";
  std::string out;
  for (int i = 0; i < count; ++i) out += i ? ", 0" : "0";
  return out;
}

bool is_arity_error(const std::string& err, std::string_view name) {
  std::string n(name);
  return err.find(n + " expects ") != std::string::npos &&
         (err.find(" arguments") != std::string::npos ||
          err.find(" args") != std::string::npos) &&
         err.find("function " + n) == std::string::npos;
}

TEST(VmBuiltinTable, InterpreterDispatchesEveryEntryAtItsArity) {
  EXPECT_EQ(almanac::builtin_table().size(), 47u);
  for (const auto& b : almanac::builtin_table()) {
    SCOPED_TRACE(std::string(b.name));
    EXPECT_EQ(almanac::lookup_builtin(b.name), b.id);
    const int max = b.max_args < 0 ? b.min_args + 2 : b.max_args;
    for (int n = b.min_args; n <= max; ++n) {
      std::string err =
          run_stmt(std::string(b.name) + "(" + call_args(b, n) + ");");
      EXPECT_EQ(err.find("unknown function"), std::string::npos) << err;
      EXPECT_FALSE(is_arity_error(err, b.name)) << n << " args: " << err;
    }
    if (b.min_args > 0)
      EXPECT_TRUE(is_arity_error(
          run_stmt(std::string(b.name) + "(" + call_args(b, b.min_args - 1) +
                   ");"),
          b.name));
    if (b.max_args >= 0)
      EXPECT_TRUE(is_arity_error(
          run_stmt(std::string(b.name) + "(" + call_args(b, b.max_args + 1) +
                   ");"),
          b.name));
  }
}

TEST(VmBuiltinTable, BuiltinsShadowUserFunctionsInInterpreterAndWinnow) {
  for (const auto& b : almanac::builtin_table()) {
    SCOPED_TRACE(std::string(b.name));
    // A user function of the builtin's name that would set `touched`.
    std::string params, args;
    for (int i = 0; i < b.min_args; ++i) {
      params += (i ? ", long p" : "long p") + std::to_string(i);
      args += i ? ", 0" : "0";
    }
    almanac::Program program = almanac::parse_program(
        "func long " + std::string(b.name) + "(" + params +
        ") { touched = 1; return 0; }\n"
        "machine M { place all; time t = 1.0; long touched = 0;\n"
        "  state s { when (t as x) do { " +
        std::string(b.name) + "(" + args + "); } } }");
    auto cm = almanac::compile_machine(program, "M");
    // Winnow: the call is not inlined, so `touched` provably stays 0.
    auto an = almanac::verify::absint::analyze_machine(cm);
    ASSERT_TRUE(an.state_entry.count("s"));
    EXPECT_FALSE(an.state_entry.at("s").at("touched").admits(
        almanac::Value(std::int64_t{1})));
    // Interpreter: the builtin runs, the user function never does.
    almanac::opt::ReplayOptions o;
    o.streams = 1;
    o.events_per_stream = 8;
    for (const auto& line : almanac::opt::replay_transcript(cm, o))
      EXPECT_EQ(line.find("reg touched = 1"), std::string::npos);
  }
}

}  // namespace
}  // namespace farm
