// Fixture-driven suite for tools/npaclint: every rule must both fire on a
// seeded violation (tests/tools/fixtures/) and respect its suppression
// marker — plus the tree-wide invariant that src/, bench/, tests/, tools/
// themselves lint clean, which is what the CI `lint` job enforces and this
// test pins locally.
#include "npaclint/lint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

using npac::lint::FileReport;
using npac::lint::Finding;
using npac::lint::lint_source;

std::filesystem::path fixture_dir() { return NPACLINT_FIXTURE_DIR; }

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Lints a fixture under a synthetic display path (which decides the D3/O1
/// path scoping).
FileReport lint_fixture(const std::string& name,
                        const std::string& display_path) {
  return lint_source(display_path, read_file(fixture_dir() / name));
}

int count_rule(const FileReport& report, const std::string& rule) {
  return static_cast<int>(
      std::count_if(report.findings.begin(), report.findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

std::vector<int> rule_lines(const FileReport& report,
                            const std::string& rule) {
  std::vector<int> lines;
  for (const Finding& f : report.findings) {
    if (f.rule == rule) lines.push_back(f.line);
  }
  return lines;
}

// ---------------------------------------------------------------------------
// D1: unordered containers
// ---------------------------------------------------------------------------

TEST(NpaclintD1, FiresOnUnorderedContainers) {
  const FileReport report =
      lint_fixture("d1_unordered.cpp", "src/core/d1_fixture.cpp");
  EXPECT_EQ(count_rule(report, "D1"), 2);
  EXPECT_EQ(rule_lines(report, "D1"), (std::vector<int>{8, 9}));
  // The two marked uses are counted as suppressed, not reported.
  EXPECT_EQ(report.suppressed, 2);
}

TEST(NpaclintD1, OrderedContainersAreClean) {
  EXPECT_EQ(count_rule(lint_source("src/x.cpp", "std::map<int,int> m;"), "D1"),
            0);
}

// ---------------------------------------------------------------------------
// D2: randomness
// ---------------------------------------------------------------------------

TEST(NpaclintD2, FiresOnRandRandomDeviceAndUnseededEngines) {
  const FileReport report =
      lint_fixture("d2_random.cpp", "src/core/d2_fixture.cpp");
  EXPECT_EQ(count_rule(report, "D2"), 5);
  EXPECT_EQ(rule_lines(report, "D2"), (std::vector<int>{7, 8, 9, 10, 11}));
  EXPECT_EQ(report.suppressed, 2);
}

TEST(NpaclintD2, SeededEngineIsClean) {
  const FileReport report = lint_source(
      "src/x.cpp", "unsigned f(unsigned long long s){std::mt19937_64 "
                   "rng(s); return (unsigned)rng();}");
  EXPECT_EQ(count_rule(report, "D2"), 0);
}

// ---------------------------------------------------------------------------
// D3: wall-clock reads and path scoping
// ---------------------------------------------------------------------------

TEST(NpaclintD3, FiresOutsideTimingLayers) {
  const FileReport report =
      lint_fixture("d3_wallclock.cpp", "src/core/d3_fixture.cpp");
  EXPECT_EQ(count_rule(report, "D3"), 4);
  EXPECT_EQ(rule_lines(report, "D3"), (std::vector<int>{8, 9, 10, 12}));
  EXPECT_EQ(report.suppressed, 1);
}

TEST(NpaclintD3, TimingLayersAreExempt) {
  for (const std::string path :
       {"src/obs/d3_fixture.cpp", "src/sweep/runner.cpp",
        "bench/perf_report.cpp"}) {
    const FileReport report = lint_fixture("d3_wallclock.cpp", path);
    EXPECT_EQ(count_rule(report, "D3"), 0) << path;
  }
}

TEST(NpaclintD3, DurationsAreNotClockReads) {
  const FileReport report = lint_source(
      "src/x.cpp", "auto w = std::chrono::milliseconds(5); (void)w;");
  EXPECT_EQ(count_rule(report, "D3"), 0);
}

// ---------------------------------------------------------------------------
// H1: allocation inside NPAC_HOT bodies
// ---------------------------------------------------------------------------

TEST(NpaclintH1, FiresInsideHotBodies) {
  const FileReport report =
      lint_fixture("h1_hot_alloc.cpp", "src/core/h1_fixture.cpp");
  // push_back, new, make_unique, vector<, string local + to_string, resize.
  EXPECT_EQ(count_rule(report, "H1"), 7);
  EXPECT_EQ(rule_lines(report, "H1"),
            (std::vector<int>{9, 10, 11, 12, 13, 13, 14}));
  EXPECT_EQ(report.suppressed, 1);
}

TEST(NpaclintH1, FiresOnHeapBackedRoutingKernelShapes) {
  // The routing-kernel fixture: a heap-grown BFS (vector construction,
  // reserve, the two push_back growth sites) and the per-level push_back
  // bucket build (nested vector construction counts twice) — the exact
  // idioms the allocation-free routing refactor removed and H1 now keeps
  // out. The flat-scratch forms and the suppressed warm-up stay green.
  const FileReport report =
      lint_fixture("h1_hot_routing.cpp", "src/core/h1_routing_fixture.cpp");
  EXPECT_EQ(count_rule(report, "H1"), 8);
  EXPECT_EQ(rule_lines(report, "H1"),
            (std::vector<int>{16, 17, 18, 19, 27, 37, 37, 40}));
  EXPECT_EQ(report.suppressed, 1);
}

TEST(NpaclintH1, ColdFunctionsMayAllocate) {
  const FileReport report = lint_source(
      "src/x.cpp", "void f(std::vector<int>& v) { v.push_back(1); }");
  EXPECT_EQ(count_rule(report, "H1"), 0);
}

TEST(NpaclintH1, MacroDefinitionDoesNotArmTheScan) {
  const FileReport report = lint_source(
      "src/support/hot.hpp",
      "#define NPAC_HOT __attribute__((hot))\n"
      "void later(std::vector<int>& v) { v.push_back(1); }\n");
  EXPECT_EQ(count_rule(report, "H1"), 0);
}

TEST(NpaclintH1, AnnotatedHotPathsInTreeStayClean) {
  // The customers of the annotation: the torus per-dimension router,
  // the graph routing kernels (fused BFS+overlay, counting-sort level
  // build, level propagation), the topo BFS kernel and the Clos container
  // picker must have zero H1 findings, suppressed or not.
  for (const std::string file :
       {"src/simnet/network.cpp", "src/simnet/graph_network.cpp",
        "src/topo/graph.cpp", "src/core/allocator.cpp"}) {
    const std::filesystem::path path =
        fixture_dir().parent_path().parent_path().parent_path() / file;
    const FileReport report = lint_source(file, read_file(path));
    EXPECT_EQ(count_rule(report, "H1"), 0) << file;
  }
}

// ---------------------------------------------------------------------------
// O1: obs:: one-branch-when-disabled pattern
// ---------------------------------------------------------------------------

TEST(NpaclintO1, FiresOnUnguardedObsUse) {
  const FileReport report =
      lint_fixture("o1_obs_pattern.cpp", "src/core/o1_fixture.cpp");
  EXPECT_EQ(count_rule(report, "O1"), 2);
  EXPECT_EQ(rule_lines(report, "O1"), (std::vector<int>{10, 11}));
  EXPECT_EQ(report.suppressed, 1);
}

TEST(NpaclintO1, ObsLayerItselfIsExempt) {
  const FileReport report =
      lint_fixture("o1_obs_pattern.cpp", "src/obs/o1_fixture.cpp");
  EXPECT_EQ(count_rule(report, "O1"), 0);
}

TEST(NpaclintO1, GuardedPatternIsClean) {
  const FileReport report = lint_source(
      "src/x.cpp",
      "std::optional<obs::ScopedTimer> span;\n"
      "if (obs::tracing_enabled()) span.emplace(\"row\");\n"
      "if (obs::Registry* const r = obs::Registry::current()) {\n"
      "  r->counter(\"n\").add(1);\n"
      "}\n");
  EXPECT_EQ(count_rule(report, "O1"), 0);
}

// ---------------------------------------------------------------------------
// SUP: marker hygiene
// ---------------------------------------------------------------------------

TEST(NpaclintSup, ReasonlessAndUnknownRuleMarkersAreFindings) {
  const FileReport report =
      lint_fixture("sup_markers.cpp", "src/core/sup_fixture.cpp");
  EXPECT_EQ(count_rule(report, "SUP"), 2);
  // The reasonless marker still names a known rule, so the D1 finding under
  // it is technically suppressed — but the SUP finding keeps the file red.
  // The unknown-rule marker suppresses nothing, so its D1 stays.
  EXPECT_EQ(count_rule(report, "D1"), 1);
}

// ---------------------------------------------------------------------------
// Scanner details the rules rely on
// ---------------------------------------------------------------------------

TEST(NpaclintScanner, LiteralsAndCommentsDoNotFire) {
  const FileReport report = lint_source(
      "src/x.cpp",
      "// mentions std::unordered_map and steady_clock::now in a comment\n"
      "const char* s = \"std::unordered_map\";\n"
      "const char* r = R\"(std::rand() and system_clock::now())\";\n");
  EXPECT_TRUE(report.findings.empty());
}

TEST(NpaclintScanner, RawStringLineNumbersSurvive) {
  const FileReport report = lint_source(
      "src/x.cpp",
      "const char* r = R\"(line\nline\nline)\";\n"
      "std::unordered_map<int,int> m;\n");
  ASSERT_EQ(count_rule(report, "D1"), 1);
  EXPECT_EQ(rule_lines(report, "D1"), (std::vector<int>{4}));
}

TEST(NpaclintScanner, RuleCatalogueIsDocumented) {
  for (const std::string& rule : npac::lint::rule_ids()) {
    EXPECT_FALSE(npac::lint::rule_description(rule).empty()) << rule;
  }
  EXPECT_TRUE(npac::lint::rule_description("D9").empty());
}

// ---------------------------------------------------------------------------
// The tree itself: zero unsuppressed findings — the CI gate, pinned here.
// ---------------------------------------------------------------------------

TEST(NpaclintTree, RepoLintsClean) {
  const std::filesystem::path repo =
      fixture_dir().parent_path().parent_path().parent_path();
  std::vector<std::string> roots;
  for (const char* dir : {"src", "bench", "tests", "tools"}) {
    roots.push_back((repo / dir).string());
  }
  const std::vector<std::string> files = npac::lint::collect_files(roots);
  ASSERT_GT(files.size(), 100u) << "collect_files missed the tree";
  std::map<std::string, int> by_rule;
  std::string first;
  int total = 0;
  for (const std::string& file : files) {
    const FileReport report = lint_source(
        std::filesystem::relative(file, repo).generic_string(),
        read_file(file));
    for (const Finding& f : report.findings) {
      ++by_rule[f.rule];
      ++total;
      if (first.empty()) {
        first = f.file + ":" + std::to_string(f.line) + ": rule(" + f.rule +
                "): " + f.message;
      }
    }
  }
  EXPECT_EQ(total, 0) << "first unsuppressed finding: " << first;
}

}  // namespace
