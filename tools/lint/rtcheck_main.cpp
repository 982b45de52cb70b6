// kalmmind-rtcheck CLI.
//
//   kalmmind-rtcheck [--root DIR] [--json] [--github] [--list-rules]
//                    [--list-roots] [--list-waivers] [-q]
//
// Walks DIR/src (or DIR itself when it has no src/), finds every
// function annotated KALMMIND_REALTIME, and
// verifies nothing reachable from those roots performs a forbidden
// operation (RT1-RT5, see rtcheck.hpp) and that no RT waiver is unused
// (RT6).  Exit code: 0 clean, 1 findings, 2 usage/IO error.
#include <filesystem>
#include <iostream>
#include <string>

#include "lint.hpp"
#include "rtcheck.hpp"

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  fs::path root = ".";
  bool quiet = false;
  bool json = false;
  bool github = false;
  bool list_roots = false;
  bool list_waivers = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::cerr << "kalmmind-rtcheck: --root needs a directory\n";
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--list-rules") {
      std::cout << kalmmind::lint::rtcheck_rule_table();
      return 0;
    } else if (arg == "--list-roots") {
      list_roots = true;
    } else if (arg == "--list-waivers") {
      list_waivers = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--github") {
      github = true;
    } else if (arg == "--quiet" || arg == "-q") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: kalmmind-rtcheck [--root DIR] [--list-rules] "
                   "[--list-roots] [--list-waivers] [--json] [--github] "
                   "[-q]\n";
      return 0;
    } else {
      std::cerr << "kalmmind-rtcheck: unknown argument " << arg << "\n";
      return 2;
    }
  }

  // A repo checkout is analyzed under root/src; a bare directory of
  // sources (fixtures, ad-hoc runs) is walked as-is (rtcheck_tree).
  if (!fs::exists(root)) {
    std::cerr << "kalmmind-rtcheck: " << root << " does not exist\n";
    return 2;
  }

  const kalmmind::lint::RtReport report = kalmmind::lint::rtcheck_tree(root);

  if (list_roots) {
    for (const std::string& r : report.roots) std::cout << r << "\n";
    return 0;
  }
  if (list_waivers) {
    std::cout << kalmmind::lint::format_waivers(report.waivers);
    return 0;
  }

  if (json) {
    std::cout << kalmmind::lint::format_findings_json(report.findings);
  } else if (github) {
    std::cout << kalmmind::lint::format_findings_github(report.findings);
  } else if (!report.findings.empty()) {
    std::cout << kalmmind::lint::format_findings(report.findings);
  }
  if (!quiet && !json) {
    std::cout << "kalmmind-rtcheck: " << report.roots.size() << " root(s), "
              << report.n_reachable << "/" << report.n_functions
              << " function(s) on the realtime path, "
              << report.findings.size() << " finding(s)\n";
  }
  return report.findings.empty() ? 0 : 1;
}
