#include "harness.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "api/session.h"
#include "common/trace.h"
#include "core/database_internal.h"

namespace assetbench {

namespace {
int64_t g_start_ns = 0;
}  // namespace

int64_t NowNs() { return asset::FlightRecorder::NowNs(); }

void MarkProcessStart() { g_start_ns = NowNs(); }

double SinceStartSeconds() {
  return static_cast<double>(NowNs() - g_start_ns) / 1e9;
}

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] + (s[hi] - s[lo]) * frac;
}

double Samples::Mean() const {
  if (v_.empty()) return 0;
  double sum = 0;
  for (double x : v_) sum += x;
  return sum / static_cast<double>(v_.size());
}

namespace {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace

CpuTicks CpuTicks::Read() {
  CpuTicks t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // cpu  user nice system idle iowait irq softirq steal guest guest_nice
  uint64_t v[8] = {};
  if (std::fscanf(f, "cpu %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                     " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64,
                  &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                  &v[7]) == 8) {
    t.steal = v[7];
    for (uint64_t x : v) t.total += x;
  }
  std::fclose(f);
  return t;
}

void Windows::Close(int64_t now) {
  const CpuTicks t = CpuTicks::Read();
  cur_.ns = now - start_ns_;
  if (t.total > ticks_.total) {
    cur_.steal = static_cast<double>(t.steal - ticks_.steal) /
                 static_cast<double>(t.total - ticks_.total);
  }
  done_.push_back(std::move(cur_));
  cur_ = Window{};
  start_ns_ = now;
  ticks_ = t;
}

std::vector<const Windows::Window*> Windows::Counted() const {
  std::vector<const Window*> out;
  for (const Window& w : done_) {
    if (w.ns * 2 >= len_ns_ && w.ops > 0) out.push_back(&w);
  }
  if (out.empty()) {
    for (const Window& w : done_) out.push_back(&w);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Window* a, const Window* b) {
                     return a->steal < b->steal;
                   });
  size_t keep = (out.size() + 3) / 4;
  while (keep < out.size() && out[keep]->steal <= kMaxSteal) ++keep;
  out.resize(keep);
  return out;
}

double Windows::MedianRate() const {
  std::vector<double> v;
  for (const Window* w : Counted()) {
    if (w->ns > 0) v.push_back(static_cast<double>(w->ops) * 1e9 / w->ns);
  }
  return Median(v);
}

double Windows::MedianQuantile(double q) const {
  std::vector<double> v;
  for (const Window* w : Counted()) v.push_back(w->lat.Quantile(q));
  return Median(v);
}

double Windows::MedianReadOnlyP50() const {
  std::vector<double> v;
  for (const Window* w : Counted()) {
    if (w->ro.size() > 0) v.push_back(w->ro.Quantile(0.5));
  }
  return Median(v);
}

double WindowSeconds(const Args& args) {
  return std::min(1.0, args.seconds / 4);
}

std::string Windows::Describe() const {
  const std::vector<const Window*> counted = Counted();
  std::string out = "windows (ops/s, host steal %; * = not counted):";
  char buf[64];
  for (const Window& w : done_) {
    const bool in =
        std::find(counted.begin(), counted.end(), &w) != counted.end();
    std::snprintf(buf, sizeof(buf), " %.0f/%.1f%s",
                  w.ns > 0 ? static_cast<double>(w.ops) * 1e9 / w.ns : 0.0,
                  100 * w.steal, in ? "" : "*");
    out += buf;
  }
  return out;
}

void PutEndToEnd(const Windows& win, double setup_s, Result* r) {
  std::fprintf(stderr, "%s\n", win.Describe().c_str());
  r->Put("ops_per_s", win.MedianRate(), "1/s");
  r->Put("op_p50_us", win.MedianQuantile(0.5), "us");
  r->Put("op_p90_us", win.MedianQuantile(0.90), "us");
  r->Put("readonly_p50_us", win.MedianReadOnlyP50(), "us");
  r->Put("setup_s", setup_s, "s");
}

double Windows::MeanOp() const {
  double sum = 0;
  size_t n = 0;
  for (const Window& w : done_) {
    sum += w.lat.Mean() * static_cast<double>(w.lat.size());
    n += w.lat.size();
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

void Result::Fail(const std::string& why) {
  correct = false;
  if (reported_++ < 10) std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

void Result::Put(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

std::string Result::Json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    char buf[64];
    double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  return out;
}

void SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                  uint32_t lane, uint64_t op) {
  if (spans_.size() >= cap_) return;
  spans_.push_back(Span{name, start_ns, end_ns, lane, op});
}

std::string SpanLog::ChromeEvents() const {
  std::string out;
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":3,\"tid\":%" PRIu32
                  ",\"args\":{\"op\":%" PRIu64 "}}",
                  out.empty() ? "" : ",", s.name,
                  static_cast<double>(s.start_ns) / 1000.0,
                  static_cast<double>(s.end_ns - s.start_ns) / 1000.0, s.lane,
                  s.op);
    out += buf;
  }
  return out;
}

void Layers::PutAll(Result* r) const {
  r->Put("client.flush_us", client_flush_us, "us");
  r->Put("client.reply_wait_us", client_reply_wait_us, "us");
  r->Put("api.codec_ns_per_cmd", api_codec_ns_per_cmd, "ns");
  r->Put("api.execute_us_per_op", api_execute_us_per_op, "us");
  r->Put("server.queue_us", server_queue_us, "us");
  r->Put("server.execute_us", server_execute_us, "us");
  r->Put("server.flush_us", server_flush_us, "us");
  r->Put("server.residual_us", server_residual_us, "us");
  r->Put("core.commit_us", core_commit_us, "us");
  r->Put("core.lock_waits_per_op", core_lock_waits_per_op, "1/op");
  r->Put("core.delegations_per_op", core_delegations_per_op, "1/op");
  r->Put("core.permit_checks_per_op", core_permit_checks_per_op, "1/op");
  r->Put("core.empty_txn_us", core_empty_txn_us, "us");
  r->Put("wal.fsyncs_per_commit", wal_fsyncs_per_commit, "1/commit");
  r->Put("wal.records_per_fsync", wal_records_per_fsync, "1/fsync");
  r->Put("wal.fsync_us", wal_fsync_us, "us");
  r->Put("wal.fsyncs_per_readonly_txn", wal_fsyncs_per_readonly_txn, "1/txn");
  r->Put("pool.hit_ratio", pool_hit_ratio, "ratio");
  r->Put("pool.evictions_per_op", pool_evictions_per_op, "1/op");
  r->Put("ckpt.count", ckpt_count, "count");
  r->Put("ckpt.ms", ckpt_ms, "ms");
  r->Put("recovery.ms", recovery_ms, "ms");
  r->Put("models.nested_us", models_nested_us, "us");
  r->Put("models.saga_us", models_saga_us, "us");
  r->Put("models.coop_us", models_coop_us, "us");
  r->Put("trace.overhead_pct", trace_overhead_pct, "%");
  r->Put("trace.base_ops_per_s", trace_base_ops_per_s, "1/s");
}

Counters Counters::Read(asset::Database& db) {
  Counters c;
  c.k = db.Stats();
  c.pool = asset::PoolOf(db).stats();
  return c;
}

double HistMeanNs(const asset::LatencyHistogram::Snapshot& before,
                  const asset::LatencyHistogram::Snapshot& after) {
  const uint64_t n = after.count - before.count;
  if (n == 0) return 0;
  return static_cast<double>(after.sum - before.sum) / static_cast<double>(n);
}

void FillKernelLayers(const Counters& b, const Counters& a, uint64_t ops,
                      Layers* l) {
  const double n = ops == 0 ? 1.0 : static_cast<double>(ops);
  auto per = [](uint64_t x, double d) { return static_cast<double>(x) / d; };
  l->core_commit_us = HistMeanNs(b.k.commit_latency, a.k.commit_latency) / 1e3;
  l->core_lock_waits_per_op = per(a.k.lock_waits - b.k.lock_waits, n);
  l->core_delegations_per_op = per(a.k.delegations - b.k.delegations, n);
  l->core_permit_checks_per_op = per(a.k.permit_checks - b.k.permit_checks, n);
  const uint64_t commits = a.k.txns_committed - b.k.txns_committed;
  const uint64_t fsyncs = a.k.wal_fsyncs - b.k.wal_fsyncs;
  const uint64_t flushed = a.k.wal_records_flushed - b.k.wal_records_flushed;
  l->wal_fsyncs_per_commit =
      commits == 0 ? 0 : per(fsyncs, static_cast<double>(commits));
  l->wal_records_per_fsync =
      fsyncs == 0 ? 0 : per(flushed, static_cast<double>(fsyncs));
  l->wal_fsync_us = HistMeanNs(b.k.fsync_latency, a.k.fsync_latency) / 1e3;
  const uint64_t hits = a.pool.hits - b.pool.hits;
  const uint64_t misses = a.pool.misses - b.pool.misses;
  l->pool_hit_ratio =
      hits + misses == 0 ? 0 : per(hits, static_cast<double>(hits + misses));
  l->pool_evictions_per_op = per(a.pool.evictions - b.pool.evictions, n);
  l->ckpt_count = static_cast<double>(a.k.checkpoints - b.k.checkpoints);
}

void FillTraceOverhead(double base_ops_per_s, double traced_ops_per_s,
                       Layers* l) {
  l->trace_base_ops_per_s = base_ops_per_s;
  l->trace_overhead_pct =
      base_ops_per_s > 0
          ? 100.0 * (base_ops_per_s - traced_ops_per_s) / base_ops_per_s
          : 0;
}

void FillCheckpointMs(asset::Database& db, const Counters& since, Layers* l) {
  if (db.Stats().checkpoints == since.k.checkpoints) db.Checkpoint();
  l->ckpt_ms =
      HistMeanNs(since.k.checkpoint_latency, db.Stats().checkpoint_latency) /
      1e6;
}

double TimedRecovery(asset::Database& db, Result* r) {
  const int64_t t0 = NowNs();
  if (asset::Status s = db.CrashAndRecover(); !s.ok()) {
    r->Fail("crash recovery failed: " + s.ToString());
  }
  return static_cast<double>(NowNs() - t0) / 1e6;
}

double StageSum(const std::string& metrics, const std::string& command,
                const std::string& stage) {
  const std::string key = "asset_server_stage_ns_sum{command=\"" + command +
                          "\",stage=\"" + stage + "\"} ";
  const size_t at = metrics.find(key);
  if (at == std::string::npos) return 0;
  return std::strtod(metrics.c_str() + at + key.size(), nullptr);
}

double CodecProbe(const std::vector<OpCommands>& ops, size_t get_reply_bytes,
                  double budget_s, Result* r) {
  using namespace asset::api;
  if (ops.empty()) return 0;
  std::vector<Reply> replies;
  for (const auto& op : ops) {
    for (const Command& c : op) {
      // A reply of the shape the command gets back.
      switch (c.type) {
        case CommandType::kBegin:
          replies.push_back(Reply::OkTid(1));
          break;
        case CommandType::kGet:
          replies.push_back(
              Reply::OkBytes(std::vector<uint8_t>(get_reply_bytes, 7)));
          break;
        default:
          replies.push_back(Reply::Ok());
      }
    }
  }
  std::vector<uint8_t> buf;
  uint64_t cmds = 0;
  uint64_t bad = 0;
  const int64_t t0 = NowNs();
  const int64_t end = t0 + static_cast<int64_t>(budget_s * 1e9);
  do {
    size_t ri = 0;
    for (const auto& op : ops) {
      for (const Command& c : op) {
        buf.clear();
        EncodeCommand(c, &buf);
        auto dc = DecodeCommand(buf);
        if (!dc.ok() || dc->type != c.type) ++bad;
        const Reply& reply = replies[ri++];
        buf.clear();
        EncodeReply(reply, &buf);
        auto dr = DecodeReply(buf);
        if (!dr.ok() || dr->bytes.size() != reply.bytes.size()) ++bad;
        ++cmds;
      }
    }
  } while (NowNs() < end);
  const int64_t t1 = NowNs();
  if (bad > 0) r->Fail("codec: " + std::to_string(bad) + " round trips failed");
  return static_cast<double>(t1 - t0) / static_cast<double>(cmds);
}

double ExecuteProbe(asset::Database& db, const std::vector<OpCommands>& ops,
                    Result* r) {
  if (ops.empty()) return 0;
  asset::api::ApiSession session(&db);
  uint64_t failed = 0;
  const int64_t t0 = NowNs();
  for (const auto& op : ops) {
    for (const auto& c : op) {
      if (!session.Execute(c).ok()) ++failed;
    }
  }
  const int64_t t1 = NowNs();
  if (failed > 0) {
    r->Fail("api replay: " + std::to_string(failed) + " replies not OK");
  }
  return static_cast<double>(t1 - t0) / 1e3 / static_cast<double>(ops.size());
}

double EmptyTxnProbe(asset::Database& db, int n) {
  const int64_t t0 = NowNs();
  for (int i = 0; i < n; ++i) {
    asset::Tid t = db.InitiateFn([] {});
    db.Begin(t);
    db.Commit(t);
  }
  return static_cast<double>(NowNs() - t0) / 1e3 / n;
}

std::unique_ptr<asset::Database> OpenDb(asset::Database::Options o) {
  auto db = asset::Database::Open(std::move(o));
  if (!db.ok()) {
    std::fprintf(stderr, "database open failed: %s\n",
                 db.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(db.value());
}

void ReadOnlyFsyncProbe(const std::string& dir, int n, bool fill_fsync,
                        Layers* l, Result* r) {
  std::filesystem::create_directories(dir);
  asset::Database::Options o;
  o.path = dir + "/probe.db";
  std::unique_ptr<asset::Database> db = OpenDb(o);
  asset::ObjectId oid = asset::kNullObjectId;
  {
    auto t = db->Begin();
    if (t.ok()) {
      auto c = t->Create<int64_t>(42);
      if (c.ok() && t->Commit().ok()) oid = *c;
    }
  }
  if (oid == asset::kNullObjectId) {
    r->Fail("read-only probe: object create failed");
    return;
  }
  const Counters b = Counters::Read(*db);
  for (int i = 0; i < n; ++i) {
    auto t = db->Begin();
    if (!t.ok()) {
      r->Fail("read-only probe: begin failed");
      return;
    }
    auto v = t->Get<int64_t>(oid);
    if (!v.ok() || *v != 42) r->Fail("read-only probe: wrong read");
    if (!t->Commit().ok()) r->Fail("read-only probe: commit failed");
  }
  const Counters a = Counters::Read(*db);
  l->wal_fsyncs_per_readonly_txn =
      static_cast<double>(a.k.wal_fsyncs - b.k.wal_fsyncs) / n;
  if (fill_fsync) {
    l->wal_fsync_us = HistMeanNs(b.k.fsync_latency, a.k.fsync_latency) / 1e3;
  }
}

std::string MergeChromeTrace(
    const std::vector<std::pair<std::string, int>>& docs,
    const std::string& extra_events) {
  std::string out = "{\"traceEvents\":[";
  bool any = false;
  for (const auto& [doc, pid] : docs) {
    const size_t open = doc.find('[');
    const size_t close = doc.rfind(']');
    if (open == std::string::npos || close == std::string::npos ||
        close <= open + 1) {
      continue;
    }
    std::string body = doc.substr(open + 1, close - open - 1);
    if (pid != 1) {
      const std::string from = "\"pid\":1,";
      const std::string to = "\"pid\":" + std::to_string(pid) + ",";
      for (size_t at = body.find(from); at != std::string::npos;
           at = body.find(from, at + to.size())) {
        body.replace(at, from.size(), to);
      }
    }
    if (any) out += ',';
    out += body;
    any = true;
  }
  if (!extra_events.empty()) {
    if (any) out += ',';
    out += extra_events;
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

std::string SelfTimeTable(const std::string& workload, double op_mean_us,
                          const Layers& l) {
  std::string out = "self times along the blocking path, " + workload +
                    " (traced run, mean us per op)\n";
  char buf[160];
  auto row = [&](const char* part, double us) {
    std::snprintf(buf, sizeof(buf), "  %-34s %10.2f  %5.1f%%\n", part, us,
                  op_mean_us > 0 ? 100.0 * us / op_mean_us : 0.0);
    out += buf;
  };
  row("client flush (send syscall)", l.client_flush_us);
  row("server queue (arrival -> dispatch)", l.server_queue_us);
  row("server execute (ApiSession+kernel)", l.server_execute_us);
  row("server reply flush", l.server_flush_us);
  row("residual (wakeups, loopback, decode)", l.server_residual_us);
  row("round trip", op_mean_us);
  std::snprintf(buf, sizeof(buf),
                "  client reply wait (overlaps the server parts): %.2f us\n",
                l.client_reply_wait_us);
  out += buf;
  return out;
}

}  // namespace assetbench
