// extended_models: one generator thread runs a fixed round of the
// paper's models (nested trips, sagas, cooperative groups) in process
// on an in-memory database. Each activity's parameters come from the
// seed; its expected effect on the objects is computed here, apart
// from the program, and the final object values are checked against it.

#include <atomic>
#include <cstdio>

#include "common/trace.h"
#include "models/cooperative.h"
#include "models/nested.h"
#include "models/saga.h"
#include "workloads.h"

namespace assetbench {
namespace {

using asset::Database;
using asset::ObjectId;
using asset::Status;
using asset::Tid;
namespace models = asset::models;

enum class Kind { kNested, kSaga, kCoop };

/// One round: 3 nested trips, 3 sagas, 2 cooperative groups.
constexpr Kind kRound[] = {Kind::kNested, Kind::kSaga, Kind::kNested,
                           Kind::kCoop,   Kind::kSaga, Kind::kNested,
                           Kind::kSaga,   Kind::kCoop};

constexpr size_t kSlots = 256;
constexpr size_t kCounters = 64;

/// The objects and the oracle of what each must hold.
struct World {
  Database* db = nullptr;
  std::vector<ObjectId> slots;
  std::vector<int64_t> slot_val;
  std::vector<ObjectId> counters;
  std::vector<int64_t> counter_val;

  /// Witnesses the planted faults use: the last aborted
  /// subtransaction's write, the last compensated saga step, the last
  /// aborted cooperative write.
  struct Write {
    bool have = false;
    size_t index = 0;
    int64_t value = 0;
  };
  Write aborted_sub;
  Write compensated_step;
  Write aborted_coop;

  /// Next object the mid-run checks read.
  size_t check_cursor = 0;
};

struct ModelsOut {
  explicit ModelsOut(double window_s) : win(window_s) {}
  Windows win;
  uint64_t activities = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Samples nested;
  Samples saga;
  Samples coop;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double OpsPerSec() const {
    const double s = static_cast<double>(end_ns - start_ns) / 1e9;
    return s > 0 ? static_cast<double>(activities) / s : 0;
  }
};

/// `k` distinct indices below `n`.
std::vector<size_t> Distinct(Rng& rng, size_t n, size_t k) {
  std::vector<size_t> out;
  while (out.size() < k) {
    const size_t x = rng.Below(n);
    bool dup = false;
    for (size_t y : out) dup = dup || y == x;
    if (!dup) out.push_back(x);
  }
  return out;
}

void SetUpWorld(World& w, Rng& rng) {
  auto t = w.db->Begin().value();
  for (size_t i = 0; i < kSlots; ++i) {
    const int64_t v = static_cast<int64_t>(rng.Below(1000000));
    w.slots.push_back(t.Create<int64_t>(v).value());
    w.slot_val.push_back(v);
  }
  for (size_t i = 0; i < kCounters; ++i) {
    const int64_t v = static_cast<int64_t>(rng.Below(1000000));
    w.counters.push_back(t.CreateCounter(v).value());
    w.counter_val.push_back(v);
  }
  if (!t.Commit().ok()) std::exit(2);
}

/// A trip of 2-4 subtransactions, each writing one slot; some abort
/// after writing. Under kAbortParent a failed subtransaction aborts
/// the trip; some trips cancel themselves at the end. A committed trip
/// also records how many subtransactions succeeded.
bool NestedTrip(World& w, Rng& rng, Result* r) {
  const size_t k = 2 + rng.Below(3);
  const std::vector<size_t> idx = Distinct(rng, kSlots, k + 1);
  const bool abort_parent = rng.Below(4) == 0;
  const bool cancel = rng.Below(10) == 0;
  std::vector<int64_t> vals(k);
  std::vector<bool> fails(k);
  for (size_t i = 0; i < k; ++i) {
    vals[i] = 1 + static_cast<int64_t>(rng.Below(1000000000));
    fails[i] = rng.Below(5) == 0;
  }
  Database* db = w.db;
  std::atomic<int> bad_ops{0};
  std::vector<Status> sub_status(k, Status::OK());
  size_t ran = 0;
  const bool committed = models::RunNestedRoot(*db, [&] {
    int64_t n_ok = 0;
    for (size_t i = 0; i < k; ++i) {
      const ObjectId oid = w.slots[idx[i]];
      const int64_t v = vals[i];
      const bool fail = fails[i];
      Status s = models::RunSubtransaction(
          *db,
          [db, oid, v, fail, &bad_ops] {
            if (!db->Put<int64_t>(oid, v).ok()) ++bad_ops;
            if (fail) db->Abort(Database::Self());
          },
          abort_parent ? models::OnChildAbort::kAbortParent
                       : models::OnChildAbort::kReportOnly);
      sub_status[i] = s;
      ++ran;
      if (s.ok()) {
        ++n_ok;
      } else if (abort_parent) {
        return;
      }
    }
    if (!db->Put<int64_t>(w.slots[idx[k]], n_ok).ok()) ++bad_ops;
    if (cancel) db->Abort(Database::Self());
  });
  if (bad_ops.load() != 0) return false;

  // The oracle: which subtransactions run, and what the trip does.
  bool expect_commit = !cancel;
  size_t expect_ran = k;
  for (size_t i = 0; i < k; ++i) {
    if (fails[i] && abort_parent) {
      expect_commit = false;
      expect_ran = i + 1;
      break;
    }
  }
  if (committed != expect_commit || ran != expect_ran) {
    r->Fail("nested trip: " + std::string(committed ? "committed" : "aborted") +
            " after " + std::to_string(ran) + " subtransactions, expected " +
            (expect_commit ? "committed" : "aborted") + " after " +
            std::to_string(expect_ran));
  }
  for (size_t i = 0; i < expect_ran && i < ran; ++i) {
    if (sub_status[i].ok() == fails[i]) {
      r->Fail("nested trip: subtransaction " + std::to_string(i) +
              (fails[i] ? " aborted but reported success"
                        : " succeeded but reported abort"));
    }
    if (fails[i]) w.aborted_sub = {true, idx[i], vals[i]};
  }
  if (expect_commit) {
    int64_t n_ok = 0;
    for (size_t i = 0; i < k; ++i) {
      if (fails[i]) continue;
      w.slot_val[idx[i]] = vals[i];
      ++n_ok;
    }
    w.slot_val[idx[k]] = n_ok;
  }
  return true;
}

/// A saga of 2-4 steps, each adding to one counter with a compensating
/// subtraction. Three in ten fail at a step after the first, which must
/// compensate every committed step in reverse.
bool SagaRun(World& w, Rng& rng, Result* r) {
  const size_t n = 2 + rng.Below(3);
  const std::vector<size_t> idx = Distinct(rng, kCounters, n);
  const size_t fail_at = rng.Below(10) < 3 ? 1 + rng.Below(n - 1) : n;
  std::vector<int64_t> deltas(n);
  for (size_t i = 0; i < n; ++i) {
    deltas[i] = 1 + static_cast<int64_t>(rng.Below(100));
  }
  Database* db = w.db;
  std::atomic<int> bad_ops{0};
  models::Saga saga;
  for (size_t i = 0; i < n; ++i) {
    const ObjectId c = w.counters[idx[i]];
    const int64_t d = deltas[i];
    const bool fail = i == fail_at;
    saga.AddStep(
        [db, c, d, fail, &bad_ops] {
          if (!db->Add(c, d).ok()) ++bad_ops;
          if (fail) db->Abort(Database::Self());
        },
        [db, c, d, &bad_ops] {
          if (!db->Add(c, -d).ok()) ++bad_ops;
        });
  }
  const models::Saga::Outcome o = saga.Run(*db);
  if (bad_ops.load() != 0) return false;

  const bool expect_commit = fail_at == n;
  const size_t expect_steps = expect_commit ? n : fail_at;
  const size_t expect_comp = expect_commit ? 0 : fail_at;
  if (o.committed != expect_commit || o.steps_committed != expect_steps ||
      o.compensations_run != expect_comp) {
    r->Fail("saga: committed=" + std::to_string(o.committed) + " steps=" +
            std::to_string(o.steps_committed) + " compensations=" +
            std::to_string(o.compensations_run) + ", expected " +
            std::to_string(expect_commit) + "/" +
            std::to_string(expect_steps) + "/" + std::to_string(expect_comp));
  }
  if (expect_commit) {
    for (size_t i = 0; i < n; ++i) w.counter_val[idx[i]] += deltas[i];
  } else {
    w.compensated_step = {true, idx[0], deltas[0]};
  }
  return true;
}

/// Two members cooperating on one shared slot under mutual permits:
/// A writes it, B reads it and writes a slot of its own. Coupling is
/// ordered (commit dependency) or atomic (group commit); one in five
/// groups has A abort after its write.
bool CoopGroup(World& w, Rng& rng, Result* r) {
  const std::vector<size_t> idx = Distinct(rng, kSlots, 2);
  const ObjectId x = w.slots[idx[0]];
  const ObjectId y = w.slots[idx[1]];
  const int64_t va = 1 + static_cast<int64_t>(rng.Below(1000000000));
  const int64_t vb = 1 + static_cast<int64_t>(rng.Below(1000000000));
  const bool atomic = rng.Below(2) == 0;
  const bool abort_a = rng.Below(5) == 0;
  Database* db = w.db;
  std::atomic<int> bad_ops{0};
  const Tid a = db->InitiateFn([db, x, va, abort_a, &bad_ops] {
    if (!db->Put<int64_t>(x, va).ok()) ++bad_ops;
    if (abort_a) db->Abort(Database::Self());
  });
  const Tid b = db->InitiateFn([db, x, y, vb, &bad_ops] {
    if (!db->Get<int64_t>(x).ok()) ++bad_ops;
    if (!db->Put<int64_t>(y, vb).ok()) ++bad_ops;
  });
  if (a == asset::kNullTid || b == asset::kNullTid) return false;
  models::CooperativeGroup group(
      *db, asset::ObjectSet{x},
      atomic ? models::CommitCoupling::kAtomic
             : models::CommitCoupling::kOrdered);
  if (!group.Enroll(a).ok() || !group.Enroll(b).ok()) return false;
  db->Begin({a, b});
  const bool all = group.CommitAll();
  // Under group commit, A's abort aborts B too, possibly mid-operation.
  if (!(abort_a && atomic) && bad_ops.load() != 0) return false;

  if (all == abort_a) {
    r->Fail(std::string("cooperative group: CommitAll ") +
            (all ? "committed" : "failed") + (abort_a ? " though" : " and") +
            " member A aborted=" + std::to_string(abort_a));
  }
  if (!abort_a) {
    w.slot_val[idx[0]] = va;
    w.slot_val[idx[1]] = vb;
  } else {
    w.aborted_coop = {true, idx[0], va};
    if (!atomic) w.slot_val[idx[1]] = vb;
  }
  return true;
}

/// Reads `count` objects, from the check cursor on, each in its own
/// read-only transaction, and compares them with the oracle. Timings
/// go to `win` when it is given.
void CheckObjects(World& w, size_t count, Windows* win, Result* r) {
  for (size_t n = 0; n < count; ++n) {
    const size_t i = w.check_cursor;
    w.check_cursor = (w.check_cursor + 1) % (kSlots + kCounters);
    const int64_t t0 = NowNs();
    auto t = w.db->Begin();
    if (!t.ok()) {
      r->Fail("models check: begin failed");
      return;
    }
    const bool slot = i < kSlots;
    auto v = slot ? t->Get<int64_t>(w.slots[i])
                  : t->GetCounter(w.counters[i - kSlots]);
    const bool committed = t->Commit().ok();
    if (win != nullptr) win->ReadOnly(static_cast<double>(NowNs() - t0) / 1e3);
    const int64_t want = slot ? w.slot_val[i] : w.counter_val[i - kSlots];
    if (!v.ok() || !committed || *v != want) {
      r->Fail(std::string(slot ? "slot " : "counter ") +
              std::to_string(slot ? i : i - kSlots) + " holds " +
              (v.ok() ? std::to_string(*v) : v.status().ToString()) +
              ", the models' outcomes imply " + std::to_string(want));
    }
  }
}

/// Every object, once.
void CheckWorld(World& w, Result* r) {
  CheckObjects(w, kSlots + kCounters, nullptr, r);
}

/// Whole rounds of activities until `deadline`, with `check_burst`
/// objects checked in read-only transactions between windows.
void ModelsLoop(World& w, Rng& rng, int64_t deadline, size_t check_burst,
                ModelsOut* out, SpanLog* spans, Result* r) {
  out->start_ns = NowNs();
  out->win.Start(out->start_ns);
  for (int64_t now = out->start_ns; now < deadline; now = NowNs()) {
    if (check_burst > 0 && out->win.Due(now)) {
      out->win.Close(now);
      CheckObjects(w, check_burst, &out->win, r);
      out->win.Restart(NowNs());
    }
    for (Kind kind : kRound) {
      const int64_t t0 = NowNs();
      bool ok = false;
      const char* name = "";
      Samples* per_kind = nullptr;
      switch (kind) {
        case Kind::kNested:
          ok = NestedTrip(w, rng, r);
          name = "models.nested";
          per_kind = &out->nested;
          break;
        case Kind::kSaga:
          ok = SagaRun(w, rng, r);
          name = "models.saga";
          per_kind = &out->saga;
          break;
        case Kind::kCoop:
          ok = CoopGroup(w, rng, r);
          name = "models.coop";
          per_kind = &out->coop;
          break;
      }
      const int64_t t1 = NowNs();
      ++out->attempted;
      if (!ok) {
        ++out->failed;
        continue;
      }
      ++out->activities;
      const double us = static_cast<double>(t1 - t0) / 1e3;
      out->win.Op(us);
      per_kind->Add(us);
      if (spans != nullptr) spans->Add(name, t0, t1, 0, out->activities);
    }
  }
  out->end_ns = NowNs();
  out->win.Close(out->end_ns);
}

/// Writes a wrong outcome into the database, as a faulty kernel might.
void Plant(World& w, const std::string& plant) {
  auto t = w.db->Begin();
  if (!t.ok()) return;
  if (plant == "nested" && w.aborted_sub.have) {
    // An aborted subtransaction's write survives.
    t->Put<int64_t>(w.slots[w.aborted_sub.index], w.aborted_sub.value);
  } else if (plant == "saga" && w.compensated_step.have) {
    // A compensated step is not reverted.
    t->Add(w.counters[w.compensated_step.index], w.compensated_step.value);
  } else if (plant == "coop" && w.aborted_coop.have) {
    // An aborted cooperative member's write survives.
    t->Put<int64_t>(w.slots[w.aborted_coop.index], w.aborted_coop.value);
  }
  t->Commit();
}

}  // namespace

void RunExtendedModels(const Args& args, Result* r) {
  std::unique_ptr<Database> db = OpenDb(Database::Options{});
  World w;
  w.db = db.get();
  Rng rng(args.seed);
  SetUpWorld(w, rng);
  const double setup_s = SinceStartSeconds();

  Layers l;
  ModelsOut out(WindowSeconds(args));
  ModelsOut traced(WindowSeconds(args));
  SpanLog spans;
  const size_t kBurst = 128;
  const int64_t t0 = NowNs();
  const int64_t end = t0 + static_cast<int64_t>(args.seconds * 1e9);
  if (!args.trace) {
    ModelsLoop(w, rng, end, kBurst, &out, nullptr, r);
  } else {
    ModelsLoop(w, rng, t0 + (end - t0) / 2, kBurst, &out, nullptr, r);
    db->set_trace_enabled(true);
    const Counters b0 = Counters::Read(*db);
    ModelsLoop(w, rng, end, kBurst, &traced, &spans, r);
    const Counters b1 = Counters::Read(*db);
    db->set_trace_enabled(false);
    FillKernelLayers(b0, b1, traced.activities, &l);
    l.models_nested_us = traced.nested.Mean();
    l.models_saga_us = traced.saga.Mean();
    l.models_coop_us = traced.coop.Mean();
    FillTraceOverhead(out.OpsPerSec(), traced.OpsPerSec(), &l);
    const std::string base = args.out_dir + "/" + args.workload;
    WriteFile(base + ".trace.json",
              MergeChromeTrace({{db->DumpTrace(), 1}}, spans.ChromeEvents()));
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "extended_models (traced run, mean us per activity)\n"
                  "  nested trip %10.2f\n  saga        %10.2f\n"
                  "  coop group  %10.2f\n  all         %10.2f\n",
                  l.models_nested_us, l.models_saga_us, l.models_coop_us,
                  traced.win.MeanOp());
    WriteFile(base + ".layers.txt", buf);
    std::fprintf(stderr, "%swrote %s.trace.json\n", buf, base.c_str());
  }
  r->attempted += out.attempted + traced.attempted;
  r->failed += out.failed + traced.failed;

  if (!args.plant.empty()) Plant(w, args.plant);
  CheckWorld(w, r);

  if (args.trace) {
    l.core_empty_txn_us = EmptyTxnProbe(*db, args.small ? 200 : 2000);
    WireProbe(*db, args.seed, args.small ? 0.1 : 0.5, &l, r);
    FillCheckpointMs(*db, Counters::Read(*db), &l);
    l.recovery_ms = TimedRecovery(*db, r);
    CheckWorld(w, r);
    ReadOnlyFsyncProbe(args.run_dir + "/probe", 200, true, &l, r);
    l.PutAll(r);
    return;
  }
  PutEndToEnd(out.win, setup_s, r);
}

void ModelsProbe(uint64_t seed, double seconds, Layers* l, Result* r) {
  std::unique_ptr<Database> db = OpenDb(Database::Options{});
  World w;
  w.db = db.get();
  Rng rng(seed);
  SetUpWorld(w, rng);
  ModelsOut out(seconds);
  ModelsLoop(w, rng, NowNs() + static_cast<int64_t>(seconds * 1e9), 0, &out,
             nullptr, r);
  if (out.failed != 0) {
    r->Fail("models probe: " + std::to_string(out.failed) +
            " activities failed");
  }
  CheckWorld(w, r);
  l->models_nested_us = out.nested.Mean();
  l->models_saga_us = out.saga.Mean();
  l->models_coop_us = out.coop.Mean();
  l->core_empty_txn_us = EmptyTxnProbe(*db, 2000);
}

}  // namespace assetbench
