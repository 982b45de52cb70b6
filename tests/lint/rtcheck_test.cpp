// kalmmind-rtcheck call-graph engine tests.  Fixtures under
// tests/lint/fixtures/rtcheck/ seed the behaviors the analyzer guarantees:
// a direct violation at an exact line, a transitive violation reported
// with its full call chain, a justified waiver honored (and audited as
// used), a bare waiver rejected with a note, an unused waiver reported as
// a finding, and cycle termination.
// Inline-source tests pin the resolution rules the repo sweep depends on
// (qualified suffix match, unqualified lookup skipping inner namespaces,
// unreachable code staying unreported).
#include "rtcheck.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace {

namespace fs = std::filesystem;
using kalmmind::lint::Finding;
using kalmmind::lint::RtReport;
using kalmmind::lint::rtcheck_sources;

const fs::path kFixtures = LINT_FIXTURES_DIR;

std::string read_fixture(const std::string& rel) {
  const fs::path path = kFixtures / rel;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

RtReport check_fixture(const std::string& rel) {
  return rtcheck_sources({{rel, read_fixture(rel)}});
}

std::string dump(const RtReport& report) {
  return kalmmind::lint::format_findings(report.findings);
}

TEST(RtCheckDirect, FlagsAllocationInRootBodyAtExactLine) {
  RtReport report = check_fixture("rtcheck/direct.hpp");
  ASSERT_EQ(report.findings.size(), 1u) << dump(report);
  const Finding& f = report.findings[0];
  EXPECT_EQ(f.rule, "RT1");
  EXPECT_EQ(f.line, 8);
  EXPECT_NE(f.message.find("fx::DirectFilter::step"), std::string::npos)
      << f.message;
  ASSERT_EQ(report.roots.size(), 1u);
  EXPECT_EQ(report.roots[0], "fx::DirectFilter::step");
}

TEST(RtCheckTransitive, ReportsFullChainFromRootToViolation) {
  RtReport report = check_fixture("rtcheck/transitive.hpp");
  ASSERT_EQ(report.findings.size(), 1u) << dump(report);
  const Finding& f = report.findings[0];
  EXPECT_EQ(f.rule, "RT1");
  EXPECT_EQ(f.line, 8);  // the `new int[8]` inside leaf_alloc
  EXPECT_NE(
      f.message.find("fx::Pipeline::step -> fx::helper -> fx::leaf_alloc"),
      std::string::npos)
      << f.message;
}

TEST(RtCheckWaiver, JustifiedWaiverSilencesAndIsAuditedAsUsed) {
  RtReport report = check_fixture("rtcheck/waived.hpp");
  EXPECT_TRUE(report.findings.empty()) << dump(report);
  ASSERT_EQ(report.waivers.size(), 1u);
  EXPECT_TRUE(report.waivers[0].used);
  EXPECT_FALSE(report.waivers[0].justification.empty());
}

TEST(RtCheckWaiver, BareWaiverIsIgnoredWithANote) {
  RtReport report = check_fixture("rtcheck/bare_waiver.hpp");
  ASSERT_EQ(report.findings.size(), 1u) << dump(report);
  const Finding& f = report.findings[0];
  EXPECT_EQ(f.rule, "RT1");
  EXPECT_NE(f.message.find("waiver ignored: missing justification"),
            std::string::npos)
      << f.message;
}

// A waiver the walk never crosses audits nothing any more: it is an RT6
// finding (so the CLI exits 1 and --github annotates it), not just an
// [unused] tag in the ledger.
TEST(RtCheckWaiver, UnusedWaiverIsAFinding) {
  RtReport report = check_fixture("rtcheck/unused_waiver.hpp");
  ASSERT_EQ(report.findings.size(), 1u) << dump(report);
  const Finding& f = report.findings[0];
  EXPECT_EQ(f.rule, "RT6");
  EXPECT_EQ(f.line, 8);  // the line the waiver covers
  EXPECT_NE(f.message.find("unused waiver"), std::string::npos) << f.message;
  ASSERT_EQ(report.waivers.size(), 1u);
  EXPECT_FALSE(report.waivers[0].used);
  const std::string github =
      kalmmind::lint::format_findings_github(report.findings);
  EXPECT_NE(github.find("::error file=rtcheck/unused_waiver.hpp,line=8"),
            std::string::npos)
      << github;
}

// The SIMD-dispatch guarantee (src/linalg/simd/dispatch.cpp): getenv and
// CPUID probing are RT4, so a load-time resolver is clean only while no
// KALMMIND_REALTIME root reaches it.  The fixture has both shapes — a hot
// path that just reads the published table, and one that re-resolves per
// step — and the analyzer must flag exactly the latter's chain.
TEST(RtCheckDispatchProbe, ProbeFlaggedOnlyWhenReachableFromRoot) {
  RtReport report = check_fixture("rtcheck/dispatch_probe.hpp");
  ASSERT_EQ(report.findings.size(), 2u) << dump(report);
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.rule, "RT4");
    EXPECT_NE(f.message.find("fx::ProbeFilter::step_reprobe -> "
                             "fx::ProbeFilter::resolve_tier"),
              std::string::npos)
        << f.message;
  }
}

TEST(RtCheckCycle, MutualRecursionTerminatesAndStillReports) {
  RtReport report = check_fixture("rtcheck/cycle.hpp");
  ASSERT_EQ(report.findings.size(), 1u) << dump(report);
  const Finding& f = report.findings[0];
  EXPECT_EQ(f.rule, "RT3");
  EXPECT_EQ(f.line, 14);
  EXPECT_NE(f.message.find("fx::Loop::step -> fx::ping -> fx::pong"),
            std::string::npos)
      << f.message;
}

TEST(RtCheckResolution, UnqualifiedCallSkipsInnerNamespaces) {
  const std::string code =
      "namespace fx {\n"
      "inline void f() {}\n"
      "namespace naive {\n"
      "inline void f() { throw 1; }\n"
      "}\n"
      "class K {\n"
      " public:\n"
      "  void step() KALMMIND_REALTIME { f(); }\n"
      "};\n"
      "}\n";
  RtReport report = rtcheck_sources({{"a.hpp", code}});
  EXPECT_TRUE(report.findings.empty()) << dump(report);
}

TEST(RtCheckResolution, QualifiedCallSuffixMatchesInnerNamespace) {
  const std::string code =
      "namespace fx {\n"
      "inline void f() {}\n"
      "namespace naive {\n"
      "inline void f() { throw 1; }\n"
      "}\n"
      "class K {\n"
      " public:\n"
      "  void step() KALMMIND_REALTIME { naive::f(); }\n"
      "};\n"
      "}\n";
  RtReport report = rtcheck_sources({{"a.hpp", code}});
  ASSERT_EQ(report.findings.size(), 1u) << dump(report);
  EXPECT_EQ(report.findings[0].rule, "RT3");
  EXPECT_EQ(report.findings[0].line, 4);
}

TEST(RtCheckReachability, UnreachableViolationIsNotReported) {
  const std::string code =
      "namespace fx {\n"
      "inline void cold() { throw 1; }\n"
      "class K {\n"
      " public:\n"
      "  void step() KALMMIND_REALTIME {}\n"
      "};\n"
      "}\n";
  RtReport report = rtcheck_sources({{"a.hpp", code}});
  EXPECT_TRUE(report.findings.empty()) << dump(report);
  EXPECT_EQ(report.n_reachable, 1u);  // only the root itself
}

TEST(RtCheckReachability, NoRootsMeansNoFindings) {
  const std::string code =
      "namespace fx {\n"
      "inline void hot() { throw 1; }\n"
      "}\n";
  RtReport report = rtcheck_sources({{"a.hpp", code}});
  EXPECT_TRUE(report.findings.empty()) << dump(report);
  EXPECT_TRUE(report.roots.empty());
}

}  // namespace
