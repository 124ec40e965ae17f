// Tamper detection: what the client's verification actually buys you.
//
// The service provider in the hybrid-storage model is *untrusted* (paper
// Section III-B). This example plays a malicious SP that tries, in turn, to
// forge a value, withhold an answer, inject a fabricated record, and serve a
// stale snapshot — and shows the client rejecting every attempt using nothing
// but the VO and the on-chain digests.
//
// Build & run:  ./build/examples/tamper_detection
#include <cstdio>

#include "core/authenticated_db.h"
#include "workload/workload.h"

namespace {

int g_failures = 0;

void Expect(bool rejected, const char* attack, const std::string& reason) {
  if (rejected) {
    std::printf("  [detected] %-28s -> %s\n", attack, reason.c_str());
  } else {
    std::printf("  [MISSED]   %-28s\n", attack);
    ++g_failures;
  }
}

}  // namespace

int main() {
  using namespace gem2;

  workload::WorkloadOptions wopts;
  wopts.domain_max = 1'000'000;
  workload::WorkloadGenerator gen(wopts);

  core::DbOptions options;
  options.kind = core::AdsKind::kGem2;
  core::AuthenticatedDb db(options);
  for (const workload::Operation& op : gen.Batch(500)) db.Insert(op.object);

  const Key lb = 100'000;
  const Key ub = 600'000;

  const core::QuerySpec range = core::QuerySpec::Range(lb, ub);
  core::VerifiedSpecResult honest = db.AuthenticatedSpec(range);
  std::printf("honest SP: %zu results, verified: %s\n\n", honest.objects.size(),
              honest.ok ? "yes" : honest.error.c_str());
  if (!honest.ok || honest.objects.size() < 3) return 1;

  std::printf("malicious SP attempts:\n");

  // Each attack tampers with the one conjunct a range answer ships.
  {  // Forge a value.
    core::SpecResponse r = db.ExecuteSpec(range);
    for (auto& tree : r.conjuncts[0].trees) {
      if (!tree.objects.empty()) {
        tree.objects[0].value = "forged sensor reading";
        break;
      }
    }
    core::VerifiedSpecResult v = db.VerifySpecFor(range, r);
    Expect(!v.ok, "forged value", v.error);
  }

  {  // Withhold an in-range answer.
    core::SpecResponse r = db.ExecuteSpec(range);
    for (auto& tree : r.conjuncts[0].trees) {
      if (!tree.objects.empty()) {
        tree.objects.erase(tree.objects.begin());
        break;
      }
    }
    core::VerifiedSpecResult v = db.VerifySpecFor(range, r);
    Expect(!v.ok, "withheld answer", v.error);
  }

  {  // Inject a fabricated record.
    core::SpecResponse r = db.ExecuteSpec(range);
    r.conjuncts[0].trees[0].objects.push_back({lb + 1, "fabricated"});
    core::VerifiedSpecResult v = db.VerifySpecFor(range, r);
    Expect(!v.ok, "injected record", v.error);
  }

  {  // Drop a whole subtree's answer (e.g. hide one SMB-tree partition).
    core::SpecResponse r = db.ExecuteSpec(range);
    r.conjuncts[0].trees.pop_back();
    core::VerifiedSpecResult v = db.VerifySpecFor(range, r);
    Expect(!v.ok, "dropped partition answer", v.error);
  }

  {  // Serve a stale snapshot: answer computed before the latest update.
    core::SpecResponse stale = db.ExecuteSpec(range);
    db.Update({honest.objects[0].key, "corrected reading"});
    core::VerifiedSpecResult v =
        db.VerifySpecFor(range, stale);  // digests moved
    Expect(!v.ok, "stale snapshot", v.error);
  }

  std::printf("\n%s\n", g_failures == 0 ? "all attacks detected"
                                        : "SOME ATTACKS WENT UNDETECTED");
  return g_failures == 0 ? 0 : 1;
}
