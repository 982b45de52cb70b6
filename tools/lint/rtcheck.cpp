#include "rtcheck.hpp"

#include <algorithm>
#include <deque>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "callgraph.hpp"
#include "source_model.hpp"

namespace kalmmind::lint {

namespace {

struct RtPattern {
  const char* rule;
  std::regex re;
  const char* what;  // short description used in the finding message
};

const std::vector<RtPattern>& rt_patterns() {
  static const std::vector<RtPattern> patterns = [] {
    std::vector<RtPattern> p;
    auto add = [&p](const char* rule, const char* re, const char* what) {
      p.push_back({rule, std::regex(re), what});
    };
    // RT1 allocation.  `\.resize\s*\(` cannot match `.resize_for_overwrite(`
    // because the char after `resize` must be whitespace-then-paren.
    add("RT1", R"(\bnew\b)", "operator new");
    add("RT1", R"(\bdelete\b)", "operator delete");
    add("RT1", R"(\b(?:malloc|calloc|realloc|free)\s*\()", "libc allocation");
    add("RT1", R"(\bmake_(?:unique|shared)\s*<)", "smart-pointer allocation");
    add("RT1", R"(\.push_back\s*\()", ".push_back()");
    add("RT1", R"(\.emplace_back\s*\()", ".emplace_back()");
    add("RT1", R"(\.emplace\s*\()", ".emplace()");
    add("RT1", R"(\.insert\s*\()", ".insert()");
    add("RT1", R"(\.reserve\s*\()", ".reserve()");
    add("RT1", R"(\.resize\s*\()", ".resize()");
    // RT2 locking.
    add("RT2", R"(\b(?:lock_guard|unique_lock|scoped_lock|shared_lock)\s*<)",
        "mutex guard");
    add("RT2", R"(\.(?:lock|try_lock)\s*\()", "explicit mutex acquisition");
    // RT3 exceptions.
    add("RT3", R"(\bthrow\b)", "throw expression");
    // RT4 blocking I/O.
    add("RT4", R"(\b(?:std\s*::\s*)?(?:cout|cerr|clog)\b)", "iostream object");
    add("RT4", R"(\b(?:printf|fprintf|fopen|fwrite|fputs)\s*\()",
        "stdio call");
    add("RT4", R"(\b(?:ofstream|ifstream|fstream|stringstream|ostringstream)\b)",
        "stream object");
    // RT4 environment/CPU probing.  getenv walks the environment block (and
    // races with setenv); CPUID-family probes serialize the pipeline.  Both
    // belong in load-time dispatch resolution (linalg/simd/dispatch.cpp),
    // never on a KALMMIND_REALTIME path.
    add("RT4", R"(\b(?:std\s*::\s*)?getenv\s*\()", "environment probe");
    add("RT4", R"(\b__builtin_cpu_(?:supports|init|is)\s*\()", "CPU probe");
    add("RT4", R"(\b__get_cpuid(?:_count|_max)?\s*\()", "CPUID intrinsic");
    // RT5 sleeps and waits.
    add("RT5", R"(this_thread\s*::\s*(?:sleep_for|sleep_until|yield)\b)",
        "thread sleep/yield");
    add("RT5", R"(\bcondition_variable\b)", "condition variable");
    add("RT5", R"(\.wait(?:_for|_until)?\s*\()", "blocking wait");
    return p;
  }();
  return patterns;
}

// One analyzed file: stripped code, raw-line suppressions, functions.
struct FileModel {
  std::string rel_path;
  std::vector<std::string> code;
  Suppressions sup;
};

struct Graph {
  std::vector<FileModel> files;
  std::vector<FunctionDef> funcs;  // file_index points into `files`
  // terminal name -> function ids sharing it
  std::map<std::string, std::vector<std::size_t>> by_name;
  // class/struct scope names seen anywhere — tells member candidates from
  // free-function candidates (out-of-line definitions included)
  std::set<std::string> class_names;
  // receiver variable name -> set of declared type short names seen for it
  // anywhere in the repo (smart pointers unwrapped to their element type)
  std::map<std::string, std::set<std::string>> decl_type;
};

const std::set<std::string>& decl_keywords() {
  static const std::set<std::string> kw = {
      "return",   "delete",  "throw",    "case",     "goto",    "break",
      "continue", "new",     "else",     "using",    "typedef", "typename",
      "template", "public",  "private",  "protected","friend",  "enum",
      "class",    "struct",  "union",    "namespace","operator","do",
      "if",       "while",   "for",      "switch",   "sizeof",  "co_return",
      "static_assert", "auto"};
  return kw;
}

// Harvest `Type name` declarations (members, locals, parameters) into the
// receiver-type map.  Name-based, not scoped: the repo's naming style
// (`health_`, `tracer`, `recorder`) is distinctive enough that a global
// map works; a name declared with several types keeps them all and the
// resolver unions over the possibilities.  Smart pointers are unwrapped
// (`shared_ptr<GainSchedule> s` binds s to GainSchedule) and `auto`
// declarations are resolved through the static-factory idiom
// (`auto& x = a::Type::global()` binds x to Type).
void harvest_decls(const std::vector<std::string>& code, Graph& g) {
  static const std::regex kDecl(
      R"(((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)\s*(<[^;<>(){}]*>)?\s*(?:[&*]|\s)*([A-Za-z_]\w*)\s*[;,=)])");
  static const std::regex kFactory(
      R"(=\s*(?:[A-Za-z_]\w*\s*::\s*)*([A-Za-z_]\w*)\s*::\s*[A-Za-z_]\w*\s*\()");
  static const std::regex kInner(
      R"(^\s*(?:[A-Za-z_]\w*\s*::\s*)*([A-Za-z_]\w*))");
  for (const std::string& line : code) {
    auto begin = std::sregex_iterator(line.begin(), line.end(), kDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const std::smatch& m = *it;
      // Only positions that can start a declaration: line start or just
      // after `(`/`,`/`;`/`{`, allowing cv/storage qualifiers in between —
      // rejects `a = b` and expression operands.
      std::size_t p = std::size_t(m.position(0));
      bool ok = false;
      for (;;) {
        while (p > 0 && (line[p - 1] == ' ' || line[p - 1] == '\t')) --p;
        if (p == 0 || line[p - 1] == '(' || line[p - 1] == ',' ||
            line[p - 1] == ';' || line[p - 1] == '{') {
          ok = true;
          break;
        }
        std::size_t e = p;
        while (p > 0 && (std::isalnum(static_cast<unsigned char>(
                             line[p - 1])) ||
                         line[p - 1] == '_')) {
          --p;
        }
        const std::string word = line.substr(p, e - p);
        if (word != "const" && word != "static" && word != "mutable" &&
            word != "constexpr" && word != "inline") {
          break;
        }
      }
      if (!ok) continue;
      std::string type = m[1].str();
      const std::size_t last_colon = type.rfind("::");
      if (last_colon != std::string::npos) type = type.substr(last_colon + 2);
      const std::string name = m[3].str();
      if (decl_keywords().count(type) || decl_keywords().count(name)) {
        if (type == "auto") {
          std::smatch fm;
          if (std::regex_search(line, fm, kFactory)) {
            g.decl_type[name].insert(fm[1].str());
          }
        }
        continue;
      }
      if (type == name) continue;  // `Foo Foo(` style noise
      if ((type == "shared_ptr" || type == "unique_ptr" ||
           type == "weak_ptr") &&
          m[2].matched) {
        const std::string tmpl = m[2].str().substr(1);  // drop '<'
        std::smatch im;
        if (std::regex_search(tmpl, im, kInner)) type = im[1].str();
      }
      g.decl_type[name].insert(type);
    }
  }
}

Graph build_graph(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  Graph g;
  for (const auto& [rel, content] : sources) {
    FileModel fm;
    fm.rel_path = rel;
    const std::vector<std::string> raw = split_lines(content);
    fm.sup = parse_suppressions(raw);
    fm.code = strip_comments(raw);
    const std::size_t file_index = g.files.size();
    for (FunctionDef& fn :
         extract_functions(rel, fm.code, &g.class_names)) {
      fn.file_index = file_index;
      g.by_name[fn.short_name()].push_back(g.funcs.size());
      g.funcs.push_back(std::move(fn));
    }
    harvest_decls(fm.code, g);
    g.files.push_back(std::move(fm));
  }
  return g;
}

// A qualified call `a::b::f` resolves only to definitions whose qualified
// name *ends with* those segments — so `linalg::multiply_into` reaches
// `kalmmind::linalg::multiply_into` but not `kalmmind::linalg::naive::
// multiply_into`.
bool segs_match(const std::vector<std::string>& def,
                const std::vector<std::string>& call) {
  if (call.size() > def.size()) return false;
  return std::equal(call.rbegin(), call.rend(), def.rbegin());
}

// The class a definition belongs to ("" for free functions).
std::string class_of(const Graph& g, const FunctionDef& fn) {
  if (fn.segs.size() < 2) return "";
  const std::string& enclosing = fn.segs[fn.segs.size() - 2];
  return g.class_names.count(enclosing) ? enclosing : std::string();
}

// Resolve one call site from `caller` to candidate definitions.
//
// Baseline: union of every definition sharing the terminal name (virtual
// dispatch, overloads and shadowing all collapse to the union).  The
// union is then narrowed with whatever static context the spelling gives:
//   * qualified calls must suffix-match the spelled scopes;
//   * `this->f()` and unqualified `f()` prefer the caller's own class;
//   * `recv.f()` / `recv->f()` prefers the class that `recv`'s (uniquely
//     agreed) declared type names — `tracer.complete()` stays inside
//     SpanTracer instead of fanning out to every `complete`;
//   * a plain free call `f(x)` prefers free-function candidates over
//     members of unrelated classes.
// Every narrowing falls back to the union when it would empty the set, so
// smart-pointer indirection and virtual dispatch stay conservative.
std::vector<std::size_t> resolve(const Graph& g, const FunctionDef& caller,
                                 const CallSite& call) {
  std::vector<std::size_t> out;
  auto it = g.by_name.find(call.segs.back());
  if (it == g.by_name.end()) return out;
  for (std::size_t id : it->second) {
    if (segs_match(g.funcs[id].segs, call.segs)) out.push_back(id);
  }
  if (call.segs.size() > 1 || out.empty()) return out;

  auto narrow_to_class = [&](const std::string& cls) {
    if (cls.empty()) return false;
    std::vector<std::size_t> kept;
    for (std::size_t id : out) {
      if (class_of(g, g.funcs[id]) == cls) kept.push_back(id);
    }
    if (kept.empty()) return false;
    out = std::move(kept);
    return true;
  };

  if (call.member_access) {
    if (call.receiver == "this") {
      narrow_to_class(class_of(g, caller));
      return out;
    }
    auto ty = call.receiver.empty() ? g.decl_type.end()
                                    : g.decl_type.find(call.receiver);
    if (ty == g.decl_type.end()) return out;  // unknown receiver: union
    bool any_known_class = false;
    for (const std::string& t : ty->second) {
      if (g.class_names.count(t)) any_known_class = true;
    }
    if (any_known_class) {
      // Keep candidates in any of the receiver's declared classes.  The
      // narrowed set may legitimately be empty (method the parser missed):
      // stopping is still sound because the pattern scan covers the
      // receiver-side line and RTSan covers the body dynamically.
      std::vector<std::size_t> kept;
      for (std::size_t id : out) {
        if (ty->second.count(class_of(g, g.funcs[id]))) kept.push_back(id);
      }
      out = std::move(kept);
    } else if (!call.arrow) {
      // `.member(` on a type the repo never defines (std:: containers,
      // scalars): the textual pattern scan on this line is the check.
      out.clear();
    }
    // `->` through an unresolvable pointer alias keeps the union —
    // that is how `strategy_->invert_into` fans out to every strategy.
    return out;
  }

  // Plain `f(...)`: an implicit-this member call or a free function.
  if (narrow_to_class(class_of(g, caller))) return out;
  std::vector<std::size_t> free_fns;
  for (std::size_t id : out) {
    if (class_of(g, g.funcs[id]).empty()) free_fns.push_back(id);
  }
  if (!free_fns.empty()) out = std::move(free_fns);
  // Unqualified lookup only sees enclosing namespaces: from
  // linalg::symmetric_sandwich_into, `multiply_into(...)` finds
  // linalg::multiply_into, never linalg::naive::multiply_into.  Keep the
  // candidates whose namespace is an ancestor of the caller's; fall back
  // to the union when none is (ADL and using-declarations).
  std::vector<std::string> caller_ns(caller.segs.begin(),
                                     caller.segs.end() - 1);
  while (!caller_ns.empty() && g.class_names.count(caller_ns.back())) {
    caller_ns.pop_back();
  }
  std::vector<std::size_t> visible;
  for (std::size_t id : out) {
    const FunctionDef& def = g.funcs[id];
    std::vector<std::string> def_ns(def.segs.begin(), def.segs.end() - 1);
    while (!def_ns.empty() && g.class_names.count(def_ns.back())) {
      def_ns.pop_back();
    }
    if (def_ns.size() <= caller_ns.size() &&
        std::equal(def_ns.begin(), def_ns.end(), caller_ns.begin())) {
      visible.push_back(id);
    }
  }
  if (!visible.empty()) out = std::move(visible);
  return out;
}

struct WaiverKey {
  std::size_t file_index;
  const Suppression* sup;
  bool operator<(const WaiverKey& o) const {
    return std::tie(file_index, sup) < std::tie(o.file_index, o.sup);
  }
};

}  // namespace

RtReport rtcheck_sources(
    const std::vector<std::pair<std::string, std::string>>& files) {
  RtReport report;
  Graph g = build_graph(files);
  report.n_files = g.files.size();
  report.n_functions = g.funcs.size();

  // Multi-root BFS with parent pointers: the first visit wins, so every
  // reported chain is a shortest path from some annotated root.
  std::deque<std::size_t> queue;
  std::vector<bool> visited(g.funcs.size(), false);
  std::vector<std::size_t> parent(g.funcs.size(), std::size_t(-1));
  for (std::size_t id = 0; id < g.funcs.size(); ++id) {
    if (!g.funcs[id].realtime) continue;
    report.roots.push_back(g.funcs[id].display());
    visited[id] = true;
    queue.push_back(id);
  }

  auto chain_of = [&](std::size_t id) {
    std::vector<std::string> names;
    for (std::size_t cur = id; cur != std::size_t(-1); cur = parent[cur]) {
      names.push_back(g.funcs[cur].display());
    }
    std::reverse(names.begin(), names.end());
    std::string out;
    for (const std::string& n : names) {
      if (!out.empty()) out += " -> ";
      out += n;
    }
    return out;
  };

  std::set<WaiverKey> used_waivers;
  std::set<std::string> emitted;  // file:line:rule dedupe across chains

  while (!queue.empty()) {
    const std::size_t id = queue.front();
    queue.pop_front();
    ++report.n_reachable;
    const FunctionDef& fn = g.funcs[id];
    const FileModel& fm = g.files[fn.file_index];

    // Pattern scan over the body.
    for (std::size_t li = fn.body_begin; li <= fn.body_end &&
                                         li < fm.code.size();
         ++li) {
      const Suppression* waiver = fm.sup.find_prefix("RT", li);
      if (waiver != nullptr) {
        used_waivers.insert({fn.file_index, waiver});
        // A justified waiver exempts the whole line; a bare one is only
        // recorded so the finding below can call it out.
        if (!waiver->justification.empty()) continue;
      }
      for (const RtPattern& p : rt_patterns()) {
        if (!std::regex_search(fm.code[li], p.re)) continue;
        std::string key = fm.rel_path + ":" + std::to_string(li) + ":" +
                          p.rule;
        if (!emitted.insert(std::move(key)).second) continue;
        std::string msg = std::string(p.what) +
                          " on realtime path: " + chain_of(id);
        if (waiver != nullptr) {
          msg += " (waiver ignored: missing justification)";
        }
        report.findings.push_back(
            {fm.rel_path, int(li) + 1, p.rule, std::move(msg)});
      }
    }

    // Edge traversal.
    for (const CallSite& call : fn.calls) {
      const Suppression* waiver = fm.sup.find_prefix("RT", call.line);
      if (waiver != nullptr && !waiver->justification.empty()) {
        used_waivers.insert({fn.file_index, waiver});
        continue;  // the audited line's outgoing edges are exempt too
      }
      for (std::size_t callee : resolve(g, fn, call)) {
        if (visited[callee]) continue;
        visited[callee] = true;
        parent[callee] = id;
        queue.push_back(callee);
      }
    }
  }

  // Waiver audit: every RT-prefixed suppression in the analyzed set.
  for (std::size_t fi = 0; fi < g.files.size(); ++fi) {
    for (const Suppression& s : g.files[fi].sup.entries) {
      std::string rules;
      bool rt = false;
      for (const std::string& r : s.rules) {
        if (r.rfind("RT", 0) == 0) rt = true;
        if (!rules.empty()) rules += ",";
        rules += r;
      }
      if (!rt) continue;
      WaiverRecord rec;
      rec.file = g.files[fi].rel_path;
      rec.line = int(s.line) + 1;
      rec.rules = std::move(rules);
      rec.justification = s.justification;
      rec.used = used_waivers.count({fi, &s}) > 0;
      if (!rec.used) {
        report.findings.push_back(
            {rec.file, rec.line, "RT6",
             "unused waiver: no realtime path crosses this line (the code "
             "it audited moved or is gone); delete it"});
      }
      report.waivers.push_back(std::move(rec));
    }
  }
  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  std::sort(report.roots.begin(), report.roots.end());
  return report;
}

RtReport rtcheck_tree(const std::filesystem::path& root) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::string, std::string>> sources;
  // A repo checkout is analyzed under src/; a bare fixture directory
  // (tests, ad-hoc runs) is walked as-is.
  const fs::path tree = fs::exists(root / "src") ? root / "src" : root;
  for (const fs::path& p : collect_sources(tree)) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    sources.emplace_back(fs::relative(p, root).generic_string(), ss.str());
  }
  return rtcheck_sources(sources);
}

std::string rtcheck_rule_table() {
  return
      "RT1  allocation   new/delete, malloc-family, make_unique/make_shared,\n"
      "                  container growth (.push_back/.emplace/.insert/\n"
      "                  .reserve/.resize); resize_for_overwrite is exempt\n"
      "RT2  locking      lock_guard/unique_lock/scoped_lock/shared_lock,\n"
      "                  explicit .lock()/.try_lock()\n"
      "RT3  throw        any throw expression on the realtime path\n"
      "RT4  blocking-io  cout/cerr/clog, printf-family, fopen, fstream types,\n"
      "                  getenv, __builtin_cpu_supports/CPUID probes\n"
      "RT5  sleep/wait   this_thread sleeps/yield, condition_variable,\n"
      "                  .wait/.wait_for/.wait_until\n"
      "RT6  unused-waiver an RT waiver on a line no realtime path crosses\n";
}

std::string format_waivers(const std::vector<WaiverRecord>& waivers) {
  std::string out;
  for (const WaiverRecord& w : waivers) {
    out += w.file + ":" + std::to_string(w.line) + ": allow(" + w.rules +
           ") ";
    out += w.justification.empty() ? "<missing justification>"
                                   : w.justification;
    if (!w.used) out += "  [unused]";
    out += "\n";
  }
  return out;
}

}  // namespace kalmmind::lint
