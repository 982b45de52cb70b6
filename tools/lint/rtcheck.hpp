// kalmmind-rtcheck: transitive real-time safety verification.
//
// The line linter (lint.hpp) checks what a line *is*; rtcheck checks what
// a function *reaches*.  Functions whose signature carries the
// KALMMIND_REALTIME annotation (src/common/realtime.hpp) are the roots of
// a breadth-first walk over the heuristic call graph (callgraph.hpp), and
// every function reachable from a root must be free of the forbidden
// operation classes:
//
//   RT1  allocation   new/delete, malloc/calloc/realloc/free,
//                     make_unique/make_shared, and growth members
//                     (.push_back/.emplace/.insert/.reserve/.resize).
//                     resize_for_overwrite is exempt by name: its grow-once
//                     contract is the repo's sanctioned preallocation hook.
//   RT2  locking      lock_guard/unique_lock/scoped_lock/shared_lock and
//                     explicit .lock()/.try_lock().
//   RT3  throw        any throw expression (a realtime step must report
//                     failure through Status, not unwinding).
//   RT4  blocking-io  iostream objects, printf-family, fopen and fstream
//                     types.
//   RT5  sleep/wait   this_thread::sleep_for/sleep_until/yield,
//                     condition_variable, and .wait/.wait_for/.wait_until.
//   RT6  unused-waiver an RT waiver on a line no realtime path crosses: the
//                     code it audited moved or was deleted, so the waiver
//                     is stale and must go.
//
// Waivers reuse the lint suppression syntax but are stricter: an RT waiver
// with no justification is *ignored* and the finding is emitted anyway,
// tagged "(waiver ignored: missing justification)".  A justified RT waiver
// exempts its whole line — both the forbidden patterns on it and any call
// edges leaving it — because the written audit covers everything that line
// does (e.g. the flight recorder's stripe-lock line).
//
// Violations are reported with the full call chain from the root, e.g.
//   KalmanFilter::step -> linalg::multiply_into -> Matrix::resize
// so the finding is actionable without re-deriving reachability by hand.
//
// This is the static half of a two-sided contract; the dynamic half is
// clang's RealtimeSanitizer wired as the KALMMIND_RTSAN CMake option
// (docs/static_analysis.md), which catches what name-based resolution
// cannot see (operators, implicit copies, destructors).
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "lint.hpp"

namespace kalmmind::lint {

// One RT waiver comment encountered during the walk, for `--list-waivers`
// audits: every entry should read as a reviewed design decision.
struct WaiverRecord {
  std::string file;
  int line = 0;  // 1-based
  std::string rules;  // comma-joined rule list as written
  std::string justification;  // empty == bare (not honored)
  bool used = false;  // sat on a line the walk actually crossed
};

struct RtReport {
  std::vector<Finding> findings;  // rule codes "RT1".."RT6"
  std::vector<WaiverRecord> waivers;
  std::vector<std::string> roots;  // display names of annotated roots
  std::size_t n_files = 0;
  std::size_t n_functions = 0;
  std::size_t n_reachable = 0;
};

// Analyze an in-memory set of {relative path, file contents} pairs.  This
// is the engine entry point the tests drive with seeded fixtures.
RtReport rtcheck_sources(
    const std::vector<std::pair<std::string, std::string>>& files);

// Analyze every lintable file under root/src (the realtime roots all live
// there; tests and tools are host-side by definition).
RtReport rtcheck_tree(const std::filesystem::path& root);

// Human-readable rule table for --list-rules.
std::string rtcheck_rule_table();

// "file:line: rule allow(...) justification [unused]" per waiver.
std::string format_waivers(const std::vector<WaiverRecord>& waivers);

}  // namespace kalmmind::lint
