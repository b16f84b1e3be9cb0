// The two wire workloads: ledger_durable (file-backed, strict
// durability, four pipelining connections) and session_rtt (in-memory,
// one connection in ping-pong), plus the wire probe extended_models
// borrows for its wire-layer slots.

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>

#include "client/client.h"
#include "common/trace.h"
#include "server/server.h"
#include "workloads.h"

namespace assetbench {
namespace {

using asset::Database;
using asset::ObjectId;
using asset::Status;
using asset::api::Command;
using asset::client::Client;
using asset::server::Server;

// --- Wire plumbing ----------------------------------------------------

std::unique_ptr<Server> StartServer(Database* db) {
  Server::Options o;  // the default server: two event-loop workers
  auto s = Server::Start(db, o);
  if (!s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 s.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(s.value());
}

std::unique_ptr<Client> Connect(uint16_t port, asset::FlightRecorder* rec) {
  Client::Options o;
  // A drained kDumpTrace reply is several MiB.
  o.max_frame_bytes = 64u << 20;
  o.io_timeout = std::chrono::milliseconds(30000);
  o.trace_recorder = rec;
  auto c = Client::Connect("127.0.0.1", port, o);
  if (!c.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 c.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(c.value());
}

/// Fills `out` with bytes derived from `key` alone.
void FillBytes(uint64_t key, std::vector<uint8_t>* out) {
  Rng g(key);
  for (size_t k = 0; k < out->size(); k += 8) {
    const uint64_t x = g.Next();
    std::memcpy(out->data() + k, &x, std::min<size_t>(8, out->size() - k));
  }
}

/// Per-op totals of one measured loop.
struct LoopOut {
  explicit LoopOut(double window_s) : win(window_s) {}
  Windows win;
  uint64_t ops = 0;
  double flush_ns = 0;
  double wait_ns = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double OpsPerSec() const {
    const double s = static_cast<double>(end_ns - start_ns) / 1e9;
    return s > 0 ? static_cast<double>(ops) / s : 0;
  }
};

/// The server's stage-histogram sums (ns) for the commands the
/// workloads send, read from the kMetrics endpoint.
struct StageTotals {
  double first_queue = 0;   ///< queue of each op's Begin
  double execute = 0;       ///< execute of every data command
  double commit_flush = 0;  ///< reply flush of each op's Commit
};

StageTotals ReadStages(Client& c, Result* r) {
  StageTotals t;
  auto m = c.Metrics();
  if (!m.ok()) {
    r->Fail("metrics endpoint: " + m.status().ToString());
    return t;
  }
  t.first_queue = StageSum(*m, "begin", "queue");
  for (const char* cmd : {"begin", "get", "put", "add", "commit"}) {
    t.execute += StageSum(*m, cmd, "execute");
  }
  t.commit_flush = StageSum(*m, "commit", "flush");
  return t;
}

/// Client and server slots from one traced loop.
void FillWireLayers(const LoopOut& out, const StageTotals& b,
                    const StageTotals& a, Layers* l) {
  const double n = out.ops == 0 ? 1.0 : static_cast<double>(out.ops);
  l->client_flush_us = out.flush_ns / 1e3 / n;
  l->client_reply_wait_us = out.wait_ns / 1e3 / n;
  l->server_queue_us = (a.first_queue - b.first_queue) / 1e3 / n;
  l->server_execute_us = (a.execute - b.execute) / 1e3 / n;
  l->server_flush_us = (a.commit_flush - b.commit_flush) / 1e3 / n;
  l->server_residual_us = out.win.MeanOp() - l->client_flush_us -
                          l->server_queue_us - l->server_execute_us -
                          l->server_flush_us;
}

/// Writes the merged Chrome trace and the self-time table.
void WriteTrace(const Args& args, Client& c, asset::FlightRecorder& client_rec,
                const SpanLog& spans, double op_mean_us, const Layers& l,
                Result* r) {
  auto server_json = c.DumpTrace();
  if (!server_json.ok()) {
    r->Fail("kDumpTrace: " + server_json.status().ToString());
    return;
  }
  const std::string base = args.out_dir + "/" + args.workload;
  WriteFile(base + ".trace.json",
            MergeChromeTrace({{*server_json, 1},
                              {client_rec.DumpChromeJson(), 2}},
                             spans.ChromeEvents()));
  const std::string table = SelfTimeTable(args.workload, op_mean_us, l);
  WriteFile(base + ".layers.txt", table);
  std::fprintf(stderr, "%swrote %s.trace.json\n", table.c_str(),
               base.c_str());
}

// --- session_rtt ------------------------------------------------------

constexpr size_t kRttPayloadBytes = 64;

std::vector<uint8_t> RttPayload(uint64_t seed, uint64_t i) {
  std::vector<uint8_t> p(kRttPayloadBytes);
  FillBytes(seed * 0x100000001b3ull + i, &p);
  return p;
}

/// One connection and the private object it reads and overwrites.
struct PingPong {
  Client* c = nullptr;
  ObjectId oid = asset::kNullObjectId;
  uint64_t seed = 0;
  uint64_t next = 1;
  /// What the object holds: the last acknowledged Put.
  std::vector<uint8_t> current;
};

void CreatePrivateObject(PingPong* pp, Result* r) {
  pp->current = RttPayload(pp->seed, 0);
  auto b = pp->c->Begin();
  auto oid = b.ok() ? pp->c->Create(pp->current)
                    : asset::Result<ObjectId>(b.status());
  if (!oid.ok() || !pp->c->Commit().ok()) {
    r->Fail("session_rtt: private object create failed");
    return;
  }
  pp->oid = *oid;
}

/// `n` read-only Begin+Get+Commit batches; each must read the last
/// acknowledged write.
void ReadOnlyBurst(PingPong& pp, int n, Windows* win, Result* r) {
  for (int i = 0; i < n; ++i) {
    const int64_t t0 = NowNs();
    pp.c->Send(Command::Begin());
    pp.c->Send(Command::Get(pp.oid));
    pp.c->Send(Command::Commit());
    bool ok = pp.c->Flush().ok();
    for (int k = 0; k < 3 && pp.c->connected(); ++k) {
      auto rep = pp.c->Receive();
      if (!rep.ok() || !rep->ok()) {
        ok = false;
        continue;
      }
      if (k == 1 && rep->bytes != pp.current) {
        r->Fail("session_rtt: read-only batch read a stale value");
      }
    }
    ++r->attempted;
    if (!ok) {
      ++r->failed;
      continue;
    }
    win->ReadOnly(static_cast<double>(NowNs() - t0) / 1e3);
  }
}

/// Whole Begin+Get+Put+Commit operations until `deadline`, with a
/// burst of `ro_burst` read-only batches between windows. `hook` runs
/// before each op with its index (planted faults).
void PingPongLoop(PingPong& pp, int64_t deadline, int ro_burst,
                  LoopOut* out, SpanLog* spans,
                  std::vector<OpCommands>* rec, size_t rec_cap, Result* r,
                  const std::function<void(uint64_t)>& hook) {
  out->start_ns = NowNs();
  out->win.Start(out->start_ns);
  uint64_t index = 0;
  while (NowNs() < deadline) {
    if (hook) hook(index);
    std::vector<uint8_t> payload = RttPayload(pp.seed, pp.next++);
    OpCommands cmds = {Command::Begin(), Command::Get(pp.oid),
                       Command::Put(pp.oid, payload), Command::Commit()};
    const int64_t t0 = NowNs();
    for (const Command& c : cmds) pp.c->Send(c);
    bool ok = pp.c->Flush().ok();
    const int64_t t1 = NowNs();
    for (size_t i = 0; i < cmds.size() && pp.c->connected(); ++i) {
      auto rep = pp.c->Receive();
      if (!rep.ok() || !rep->ok()) {
        ok = false;
        continue;
      }
      if (i == 1 && rep->bytes != pp.current) {
        r->Fail("session_rtt: op " + std::to_string(index) +
                " read a value other than the previous op's write");
      }
    }
    const int64_t t2 = NowNs();
    ++r->attempted;
    if (ok) {
      pp.current = std::move(payload);
      ++out->ops;
      out->win.Op(static_cast<double>(t2 - t0) / 1e3);
      out->flush_ns += static_cast<double>(t1 - t0);
      out->wait_ns += static_cast<double>(t2 - t1);
    } else {
      ++r->failed;
    }
    if (spans != nullptr) {
      spans->Add("op", t0, t2, 0, index);
      spans->Add("client.flush", t0, t1, 0, index);
      spans->Add("client.reply_wait", t1, t2, 0, index);
    }
    if (rec != nullptr && rec->size() < rec_cap) rec->push_back(cmds);
    ++index;
    if (!pp.c->connected()) {
      r->Fail("session_rtt: connection lost");
      break;
    }
    if (ro_burst > 0 && out->win.Due(t2)) {
      out->win.Close(t2);
      ReadOnlyBurst(pp, ro_burst, &out->win, r);
      out->win.Restart(NowNs());
    }
  }
  out->end_ns = NowNs();
  out->win.Close(out->end_ns);
}

// --- ledger_durable ---------------------------------------------------

constexpr int kConns = 4;
constexpr int kAccounts = 8;
constexpr int64_t kInitialBalance = 1000000;
constexpr size_t kRecordBytes = 1000;
constexpr int kTransfersPerBatch = 3;  // plus one audit: 4 in flight
constexpr size_t kCreatesPerTxn = 512;

std::vector<uint8_t> LedgerRecord(int conn, size_t slot, uint64_t seq) {
  std::vector<uint8_t> rec(kRecordBytes);
  FillBytes((static_cast<uint64_t>(conn) << 56) ^ (slot << 32) ^ seq, &rec);
  std::memcpy(rec.data(), &seq, sizeof(seq));
  return rec;
}

struct LedgerConn {
  std::unique_ptr<Client> c;
  /// Objects only this connection writes.
  std::vector<ObjectId> slice;
  /// Sequence number of the last acknowledged write to each slot.
  std::vector<uint64_t> seq;
  uint64_t next_seq = 1;
};

struct PlannedTxn {
  bool audit = false;
  int from = 0;
  int to = 0;
  int64_t x = 0;
  size_t slot = 0;
  uint64_t seq = 0;
  size_t read_a = 0;
  size_t read_b = 0;
};

struct Ledger {
  Database* db = nullptr;
  std::vector<ObjectId> accounts;
  /// The oracle: balances implied by acknowledged transfers.
  std::vector<int64_t> balance;
  std::vector<LedgerConn> conns;
  uint64_t acks = 0;
};

/// One round: every connection sends and flushes its batch of three
/// transfers and one audit, then every batch's replies are read.
void LedgerRound(Ledger& L, Rng& rng, LoopOut* out, SpanLog* spans,
                 std::vector<OpCommands>* rec, size_t rec_cap, uint64_t round,
                 Result* r) {
  std::array<std::vector<PlannedTxn>, kConns> plan;
  std::array<int64_t, kConns> t_start{};
  std::array<int64_t, kConns> t_flushed{};
  for (int k = 0; k < kConns; ++k) {
    LedgerConn& lc = L.conns[k];
    const size_t n = lc.slice.size();
    for (int i = 0; i <= kTransfersPerBatch; ++i) {
      PlannedTxn p;
      OpCommands cmds;
      cmds.push_back(Command::Begin());
      if (i < kTransfersPerBatch) {
        p.from = static_cast<int>(rng.Below(kAccounts));
        p.to = static_cast<int>((p.from + 1 + rng.Below(kAccounts - 1)) %
                                kAccounts);
        p.x = 1 + static_cast<int64_t>(rng.Below(1000));
        p.slot = rng.Below(n);
        p.seq = lc.next_seq++;
        cmds.push_back(Command::Add(L.accounts[p.from], -p.x));
        cmds.push_back(Command::Add(L.accounts[p.to], p.x));
        cmds.push_back(
            Command::Put(lc.slice[p.slot], LedgerRecord(k, p.slot, p.seq)));
      } else {
        p.audit = true;
        p.read_a = rng.Below(n);
        p.read_b = rng.Below(n);
        cmds.push_back(Command::Get(lc.slice[p.read_a]));
        cmds.push_back(Command::Get(lc.slice[p.read_b]));
      }
      cmds.push_back(Command::Commit());
      for (const Command& c : cmds) lc.c->Send(c);
      if (rec != nullptr && rec->size() < rec_cap) rec->push_back(cmds);
      plan[k].push_back(p);
    }
    t_start[k] = NowNs();
    if (!lc.c->Flush().ok()) r->Fail("ledger_durable: flush failed");
    t_flushed[k] = NowNs();
    out->flush_ns += static_cast<double>(t_flushed[k] - t_start[k]);
    if (spans != nullptr) {
      spans->Add("client.flush", t_start[k], t_flushed[k], k, round);
    }
  }
  for (int k = 0; k < kConns; ++k) {
    LedgerConn& lc = L.conns[k];
    for (const PlannedTxn& p : plan[k]) {
      const int replies = p.audit ? 4 : 5;
      bool ok = true;
      for (int i = 0; i < replies; ++i) {
        auto rep = lc.c->Receive();
        if (!rep.ok()) {
          r->Fail("ledger_durable: connection lost: " +
                  rep.status().ToString());
          return;
        }
        if (!rep->ok()) {
          ok = false;
          continue;
        }
        if (p.audit && (i == 1 || i == 2)) {
          const size_t slot = i == 1 ? p.read_a : p.read_b;
          if (rep->bytes != LedgerRecord(k, slot, lc.seq[slot])) {
            r->Fail("ledger_durable: audit read a value other than the "
                    "last acknowledged write");
          }
        }
      }
      const int64_t t = NowNs();
      ++r->attempted;
      if (!ok) {
        ++r->failed;
        continue;
      }
      ++L.acks;
      ++out->ops;
      const double us = static_cast<double>(t - t_start[k]) / 1e3;
      out->win.Op(us);
      if (p.audit) {
        out->win.ReadOnly(us);
      } else {
        L.balance[p.from] -= p.x;
        L.balance[p.to] += p.x;
        lc.seq[p.slot] = p.seq;
      }
    }
    const int64_t t_done = NowNs();
    out->wait_ns += static_cast<double>(t_done - t_flushed[k]);
    if (spans != nullptr) {
      spans->Add("client.reply_wait", t_flushed[k], t_done, k, round);
      spans->Add("batch", t_start[k], t_done, k, round);
    }
  }
}

void LedgerLoop(Ledger& L, Rng& rng, int64_t deadline, LoopOut* out,
                SpanLog* spans, std::vector<OpCommands>* rec, Result* r) {
  out->start_ns = NowNs();
  out->win.Start(out->start_ns);
  uint64_t round = 0;
  for (int64_t now = out->start_ns; now < deadline && r->correct;) {
    LedgerRound(L, rng, out, spans, rec, 500, round++, r);
    now = NowNs();
    if (out->win.Due(now)) out->win.Close(now);
  }
  out->end_ns = NowNs();
  out->win.Close(out->end_ns);
}

/// Every account against the oracle (and so the total), then, with
/// `objects`, every ledger object against its last acknowledged write.
void CheckLedger(Ledger& L, bool objects, const char* when, Result* r) {
  {
    auto t = L.db->Begin();
    if (!t.ok()) {
      r->Fail(std::string("ledger check: begin failed ") + when);
      return;
    }
    int64_t total = 0;
    for (int a = 0; a < kAccounts; ++a) {
      auto v = t->GetCounter(L.accounts[a]);
      if (!v.ok()) {
        r->Fail(std::string("ledger check: account unreadable ") + when);
        return;
      }
      total += *v;
      if (*v != L.balance[a]) {
        r->Fail(std::string("ledger: account ") + std::to_string(a) +
                " holds " + std::to_string(*v) + ", acknowledged transfers "
                "imply " + std::to_string(L.balance[a]) + " " + when);
      }
    }
    if (total != kInitialBalance * kAccounts) {
      r->Fail(std::string("ledger: total ") + std::to_string(total) +
              " != initial " + std::to_string(kInitialBalance * kAccounts) +
              " " + when);
    }
    t->Commit();
  }
  if (!objects) return;
  for (int k = 0; k < kConns; ++k) {
    const LedgerConn& lc = L.conns[k];
    for (size_t i = 0; i < lc.slice.size(); i += kCreatesPerTxn) {
      auto t = L.db->Begin();
      if (!t.ok()) {
        r->Fail("ledger check: begin failed");
        return;
      }
      for (size_t j = i; j < std::min(lc.slice.size(), i + kCreatesPerTxn);
           ++j) {
        auto v = t->Read(lc.slice[j]);
        if (!v.ok() || *v != LedgerRecord(k, j, lc.seq[j])) {
          r->Fail(std::string("ledger: object ") + std::to_string(k) + "/" +
                  std::to_string(j) + " does not hold its last acknowledged "
                  "write " + when);
        }
      }
      t->Commit();
    }
  }
}

void SetUpLedger(Ledger& L, size_t objects_per_conn, uint16_t port,
                 asset::FlightRecorder* client_rec) {
  {
    auto t = L.db->Begin().value();
    for (int a = 0; a < kAccounts; ++a) {
      L.accounts.push_back(t.CreateCounter(kInitialBalance).value());
      L.balance.push_back(kInitialBalance);
    }
    if (!t.Commit().ok()) std::exit(2);
  }
  L.conns.resize(kConns);
  for (int k = 0; k < kConns; ++k) {
    LedgerConn& lc = L.conns[k];
    lc.seq.assign(objects_per_conn, 0);
    for (size_t i = 0; i < objects_per_conn; i += kCreatesPerTxn) {
      auto t = L.db->Begin().value();
      for (size_t j = i; j < std::min(objects_per_conn, i + kCreatesPerTxn);
           ++j) {
        lc.slice.push_back(t.CreateObject(LedgerRecord(k, j, 0)).value());
      }
      if (!t.Commit().ok()) std::exit(2);
    }
    lc.c = Connect(port, client_rec);
  }
}

}  // namespace

void RunLedgerDurable(const Args& args, Result* r) {
  const std::string dir = args.run_dir + "/ledger";
  std::filesystem::create_directories(dir);
  Database::Options o;
  o.path = dir + "/ledger.db";
  // Background checkpoints on a log-bytes trigger; default pool (1024
  // frames). Commits ack under relaxed durability: the flusher forces
  // the log in the background, batching commits per fsync, and
  // SyncWal() after the loop is the sync point the crash check relies
  // on. With strict durability every ack waits one fsync, and run-to-run
  // fsync latency on a shared virtual disk moved throughput by 2x.
  o.checkpoint.log_bytes_trigger = 16u << 20;
  o.txn.durability = asset::DurabilityPolicy::kRelaxed;
  std::unique_ptr<Database> db = OpenDb(o);
  std::unique_ptr<Server> server = StartServer(db.get());
  asset::FlightRecorder client_rec(asset::TraceOptions{false, 1 << 15});
  Ledger L;
  L.db = db.get();
  // 8192 objects of 1000 B per connection: ~4100 pages, 4x the pool.
  SetUpLedger(L, args.small ? 256 : 8192, server->port(), &client_rec);
  const double setup_s = SinceStartSeconds();

  Rng rng(args.seed);
  Layers l;
  LoopOut out(WindowSeconds(args));
  LoopOut traced(WindowSeconds(args));
  SpanLog spans;
  std::vector<OpCommands> rec;
  const Counters c0 = Counters::Read(*db);
  const int64_t t0 = NowNs();
  const int64_t end = t0 + static_cast<int64_t>(args.seconds * 1e9);
  if (args.plant == "ack_count") {
    // An extra commit the clients never saw acknowledged.
    auto t = db->Begin();
    if (t.ok()) t->Commit();
  }
  if (!args.trace) {
    LedgerLoop(L, rng, end, &out, nullptr, nullptr, r);
  } else {
    LedgerLoop(L, rng, t0 + (end - t0) / 2, &out, nullptr, nullptr, r);
    db->set_trace_enabled(true);
    client_rec.set_enabled(true);
    const StageTotals s0 = ReadStages(*L.conns[0].c, r);
    const Counters b0 = Counters::Read(*db);
    LedgerLoop(L, rng, end, &traced, &spans, &rec, r);
    const Counters b1 = Counters::Read(*db);
    const StageTotals s1 = ReadStages(*L.conns[0].c, r);
    db->set_trace_enabled(false);
    client_rec.set_enabled(false);
    FillWireLayers(traced, s0, s1, &l);
    FillKernelLayers(b0, b1, traced.ops, &l);
    FillTraceOverhead(out.OpsPerSec(), traced.OpsPerSec(), &l);
    WriteTrace(args, *L.conns[0].c, client_rec, spans, traced.win.MeanOp(), l,
               r);
  }
  const Counters c1 = Counters::Read(*db);
  const uint64_t kernel_commits = c1.k.txns_committed - c0.k.txns_committed;
  if (kernel_commits != L.acks) {
    r->Fail("ledger: clients saw " + std::to_string(L.acks) +
            " acknowledged commits, the kernel counted " +
            std::to_string(kernel_commits));
  }
  for (LedgerConn& lc : L.conns) lc.c.reset();
  server->Shutdown();
  if (Status s = db->SyncWal(); !s.ok()) {
    r->Fail("ledger: log sync failed: " + s.ToString());
  }

  if (args.plant == "ledger_total") {
    auto t = db->Begin();
    if (t.ok() && t->Add(L.accounts[0], 1).ok()) t->Commit();
  }
  CheckLedger(L, false, "after server shutdown", r);
  if (args.trace) {
    ReadOnlyFsyncProbe(dir + "/probe", 200, false, &l, r);
    FillCheckpointMs(*db, c0, &l);
  }
  l.recovery_ms = TimedRecovery(*db, r);
  if (args.plant == "lost_write") {
    // Roll one acknowledged write back to the object's initial value.
    LedgerConn& lc = L.conns[0];
    for (size_t j = 0; j < lc.slice.size(); ++j) {
      if (lc.seq[j] == 0) continue;
      auto t = db->Begin();
      if (t.ok() && t->Write(lc.slice[j], LedgerRecord(0, j, 0)).ok()) {
        t->Commit();
      }
      break;
    }
  }
  CheckLedger(L, true, "after crash recovery", r);

  if (args.trace) {
    l.api_codec_ns_per_cmd =
        CodecProbe(rec, kRecordBytes, args.small ? 0.02 : 0.1, r);
    l.api_execute_us_per_op = ExecuteProbe(*db, rec, r);
    ModelsProbe(args.seed, args.small ? 0.1 : 0.5, &l, r);
    l.PutAll(r);
    return;
  }
  PutEndToEnd(out.win, setup_s, r);
}

void RunSessionRtt(const Args& args, Result* r) {
  std::unique_ptr<Database> db = OpenDb(Database::Options{});
  std::unique_ptr<Server> server = StartServer(db.get());
  asset::FlightRecorder client_rec(asset::TraceOptions{false, 1 << 15});
  std::unique_ptr<Client> client = Connect(server->port(), &client_rec);
  PingPong pp;
  pp.c = client.get();
  pp.seed = args.seed;
  CreatePrivateObject(&pp, r);
  const double setup_s = SinceStartSeconds();

  std::function<void(uint64_t)> hook;
  if (args.plant == "rtt_read") {
    hook = [&](uint64_t index) {
      if (index != 50) return;
      // A write the client never made.
      auto t = db->Begin();
      if (t.ok() && t->Write(pp.oid, RttPayload(args.seed + 1, 7)).ok()) {
        t->Commit();
      }
    };
  }
  Layers l;
  LoopOut out(WindowSeconds(args));
  LoopOut traced(WindowSeconds(args));
  SpanLog spans;
  std::vector<OpCommands> rec;
  const int kBurst = 100;
  const int64_t t0 = NowNs();
  const int64_t end = t0 + static_cast<int64_t>(args.seconds * 1e9);
  if (!args.trace) {
    PingPongLoop(pp, end, kBurst, &out, nullptr, nullptr, 0, r, hook);
  } else {
    PingPongLoop(pp, t0 + (end - t0) / 2, kBurst, &out, nullptr, nullptr, 0,
                 r, hook);
    db->set_trace_enabled(true);
    client_rec.set_enabled(true);
    const StageTotals s0 = ReadStages(*client, r);
    const Counters b0 = Counters::Read(*db);
    PingPongLoop(pp, end, kBurst, &traced, &spans, &rec, 2000, r, hook);
    const Counters b1 = Counters::Read(*db);
    const StageTotals s1 = ReadStages(*client, r);
    db->set_trace_enabled(false);
    client_rec.set_enabled(false);
    FillWireLayers(traced, s0, s1, &l);
    FillKernelLayers(b0, b1, traced.ops, &l);
    FillTraceOverhead(out.OpsPerSec(), traced.OpsPerSec(), &l);
    WriteTrace(args, *client, client_rec, spans, traced.win.MeanOp(), l, r);
  }
  client.reset();
  server->Shutdown();

  if (args.trace) {
    l.api_codec_ns_per_cmd =
        CodecProbe(rec, kRttPayloadBytes, args.small ? 0.02 : 0.1, r);
    l.api_execute_us_per_op = ExecuteProbe(*db, rec, r);
    FillCheckpointMs(*db, Counters::Read(*db), &l);
    l.recovery_ms = TimedRecovery(*db, r);
    ReadOnlyFsyncProbe(args.run_dir + "/probe", 200, true, &l, r);
    ModelsProbe(args.seed, args.small ? 0.1 : 0.5, &l, r);
    l.PutAll(r);
    return;
  }
  PutEndToEnd(out.win, setup_s, r);
}

void WireProbe(Database& db, uint64_t seed, double seconds, Layers* l,
               Result* r) {
  std::unique_ptr<Server> server = StartServer(&db);
  std::unique_ptr<Client> client = Connect(server->port(), nullptr);
  PingPong pp;
  pp.c = client.get();
  pp.seed = seed;
  CreatePrivateObject(&pp, r);
  LoopOut out(seconds);
  std::vector<OpCommands> rec;
  const StageTotals s0 = ReadStages(*client, r);
  PingPongLoop(pp, NowNs() + static_cast<int64_t>(seconds * 1e9), 0, &out,
               nullptr, &rec, 2000, r, nullptr);
  const StageTotals s1 = ReadStages(*client, r);
  FillWireLayers(out, s0, s1, l);
  client.reset();
  server->Shutdown();
  l->api_codec_ns_per_cmd =
      CodecProbe(rec, kRttPayloadBytes, seconds / 5, r);
  l->api_execute_us_per_op = ExecuteProbe(db, rec, r);
}

}  // namespace assetbench
