// rtcheck fixture: a justified allow(RT3) waiver on a line no realtime
// path reaches.  The step is clean, so the only finding is RT6 for the
// orphaned waiver, which the ledger also lists as unused.
#pragma once
namespace fx {
inline void cold_setup(int n) {
  // kalmmind-lint: allow(RT3) setup validation runs before serving begins
  if (n < 0) throw n;
}
class Clean {
 public:
  void step() KALMMIND_REALTIME { ++n_; }

 private:
  int n_ = 0;
};
}  // namespace fx
