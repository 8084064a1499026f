// End-to-end benchmark of the encrypted store over its real deployment
// path: one process hosts an UntrustedServer behind net::NetServer on
// 127.0.0.1, and one client::Client (VerifyMode::kEnforce) drives it over
// one net::TcpTransport in a closed loop.
//
//   e2e_bench --workload=point_hot|scan_cold|write_mix --seed=N
//             --seconds=S --trace=0|1 [--workdir=DIR] [--spans=FILE]
//             [--docs=N]
//
// Every input (relation contents, keys, the op sequence) is generated
// here from --seed; the store receives only the generated tuples and
// predicates. Every answer is checked against a plaintext model. The
// last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}: end-to-end metrics with --trace=0, per-layer metrics with
// --trace=1. See README.md in this directory for the workloads, the
// metrics and how the layer metrics relate to the end-to-end ones.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "client/client.h"
#include "common/bytes.h"
#include "common/macros.h"
#include "crypto/random.h"
#include "net/net_server.h"
#include "net/tcp_transport.h"
#include "obs/metrics.h"
#include "relation/relation.h"
#include "server/durable_store.h"
#include "server/observation.h"
#include "server/untrusted_server.h"

// ---- heap-allocation counter (proc.heap_allocs_per_op) ----
// Client and server share this process, so one counter sees both sides.

namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace dbph;

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ constants

/// Server scan workers. Fixed, never the hardware default: with the
/// inline-dispatching loop thread and the (blocked) client thread, busy
/// threads stay at or below the 4 cores of the reference host.
constexpr size_t kServerWorkers = 2;

/// Side relation that gives the read workloads their insert/delete
/// samples (see README "Why every workload writes").
constexpr size_t kSideDocs = 100;
constexpr char kMainRel[] = "T";
constexpr char kSideRel[] = "W";

/// Host-speed probe cadence and size.
constexpr int64_t kProbeEveryNs = 250'000'000;
constexpr uint64_t kProbeIters = 1u << 20;

/// Traced runs alternate untraced and traced blocks of this length, so
/// proc.tracing_overhead compares the two under the same host phases.
constexpr int64_t kTraceBlockNs = 500'000'000;

/// write_mix checkpoints when the WAL reaches this size, and on nothing
/// else; the counted prefix must stay below it (see Bench::Run).
constexpr size_t kCheckpointWalBytes = 8 * 1024;

/// Complete set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

/// The timed phase is cut into this many windows of equal length. Latency
/// percentiles and ops_s are taken per window and the median over the
/// windows is reported, so that a slow host phase covering a minority of
/// the windows does not move them (see README "Host drift").
constexpr int kWindows = 5;

struct WorkloadSpec {
  std::string name;
  size_t docs = 0;          ///< rows in the main relation
  size_t hot_keys = 0;      ///< point_hot: warmed keys drawn by Zipf
  size_t warm_vals = 0;     ///< write_mix: memoized `val` predicates
  size_t reads_per_cycle = 0;  ///< selects per op cycle
  bool side_writes = false;    ///< insert/delete go to the side relation
  bool durable = false;        ///< DurableStore under the server
  size_t count_cycles = 0;  ///< fixed prefix the exact counts cover
};

Result<WorkloadSpec> SpecFor(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "point_hot") {
    s.docs = 100000;
    s.hot_keys = 128;
    s.reads_per_cycle = 800;
    s.side_writes = true;
    s.count_cycles = 4;
  } else if (name == "scan_cold") {
    s.docs = 100000;
    s.reads_per_cycle = 2;
    s.side_writes = true;
    s.count_cycles = 16;
  } else if (name == "write_mix") {
    s.docs = 20000;
    s.warm_vals = 10;
    s.reads_per_cycle = 1;
    s.durable = true;
    s.count_cycles = 10;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return s;
}

// -------------------------------------------------------- seeded inputs

/// SplitMix64: the benchmark's own generator for data and op sequences.
struct SplitMix {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }
};

rel::Schema BenchSchema() {
  return *rel::Schema::Create({
      {"key", rel::ValueType::kString, 12},
      {"val", rel::ValueType::kInt64, 10},
  });
}

/// Row i's unique key: an odd-multiplier bijection on 32 bits, so keys
/// are distinct for every i < 2^32 and differ between seeds.
struct KeySpace {
  uint32_t mul;
  uint32_t add;
  explicit KeySpace(SplitMix* rng)
      : mul(static_cast<uint32_t>(rng->Next()) | 1u),
        add(static_cast<uint32_t>(rng->Next())) {}
  std::string Key(uint64_t i, char prefix = 'k') const {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%c%08x", prefix,
                  static_cast<uint32_t>(i) * mul + add);
    return buf;
  }
};

rel::Tuple MakeTuple(const std::string& key, int64_t val) {
  return rel::Tuple({rel::Value::Str(key), rel::Value::Int(val)});
}

/// Bytes of plaintext a row holds (the denominator of
/// disk_bytes_per_user_byte).
size_t PlainBytes(const std::string& key) { return key.size() + 8; }

/// Plaintext model of one relation: key -> val, plus the keys of each
/// val for the wide selects.
struct Model {
  std::unordered_map<std::string, int64_t> val_of;
  std::map<int64_t, std::set<std::string>> keys_of;
  size_t plain_bytes = 0;

  void Add(const std::string& key, int64_t val) {
    val_of[key] = val;
    keys_of[val].insert(key);
    plain_bytes += PlainBytes(key);
  }
  void Remove(const std::string& key) {
    auto it = val_of.find(key);
    keys_of[it->second].erase(key);
    plain_bytes -= PlainBytes(key);
    val_of.erase(it);
  }
};

/// The relation rows: row i has key Key(i); each val in [0, 100) goes to
/// exactly n/100 rows in seeded order (1% selectivity), so a `val` select
/// returns the same number of rows whatever the seed.
rel::Relation MakeRelation(const std::string& name, size_t n,
                           const KeySpace& keys, SplitMix* rng, Model* model) {
  std::vector<int64_t> vals(n);
  for (size_t i = 0; i < n; ++i) vals[i] = static_cast<int64_t>(i % 100);
  for (size_t i = n; i > 1; --i) std::swap(vals[i - 1], vals[rng->Below(i)]);
  rel::Relation table(name, BenchSchema());
  for (size_t i = 0; i < n; ++i) {
    std::string key = keys.Key(i);
    model->Add(key, vals[i]);
    (void)table.Insert(MakeTuple(key, vals[i]));
  }
  return table;
}

/// Zipf(s = 0.99) over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  explicit Zipf(size_t n) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), 0.99);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(SplitMix* rng) const {
    double u = rng->Unit();
    size_t i = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// First `k` entries of a seeded permutation of [0, n).
std::vector<uint64_t> SamplePermutation(size_t n, size_t k, SplitMix* rng) {
  std::vector<uint64_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  k = std::min(k, n);
  for (size_t i = 0; i < k; ++i) {
    std::swap(perm[i], perm[i + rng->Below(n - i)]);
  }
  perm.resize(k);
  return perm;
}

// --------------------------------------------------------------- tracing

enum class SpanName : uint8_t {
  kSelect,
  kInsert,
  kDelete,
  kRpc,
  kTrapdoor,
  kEncryptTuple,
  kDecryptRow,
};

const char* SpanNameText(SpanName n) {
  switch (n) {
    case SpanName::kSelect: return "client.select";
    case SpanName::kInsert: return "client.insert";
    case SpanName::kDelete: return "client.delete";
    case SpanName::kRpc: return "net.rpc";
    case SpanName::kTrapdoor: return "dbph.encrypt_query";
    case SpanName::kEncryptTuple: return "dbph.encrypt_tuple";
    case SpanName::kDecryptRow: return "dbph.decrypt_tuple";
  }
  return "?";
}

/// One timed interval. `parent` is the id of the op span it belongs to
/// (0 for op spans themselves).
struct Span {
  uint64_t id;
  uint64_t parent;
  SpanName name;
  int64_t start_ns;
  int64_t end_ns;
};

/// In-memory span store; written out once the run ends.
struct Tracer {
  bool on = false;
  uint64_t current_op = 0;  ///< op span the next child attaches to
  uint64_t next_id = 1;
  std::vector<Span> spans;

  void Add(SpanName name, uint64_t parent, int64_t start, int64_t end) {
    spans.push_back({next_id++, parent, name, start, end});
  }
};

/// Counts every byte, round trip and round-trip time the client puts on
/// the wire; in a traced block it also records one span per round trip.
struct WireMeter {
  uint64_t round_trips = 0;
  uint64_t req_bytes = 0;
  uint64_t resp_bytes = 0;
  int64_t rtt_ns = 0;
  Tracer* tracer = nullptr;
};

constexpr size_t kFrameHeaderBytes = 4;

client::Transport MeteredTransport(client::Transport inner, WireMeter* m) {
  return [inner = std::move(inner), m](const Bytes& request) {
    int64_t start = NowNs();
    Bytes response = inner(request);
    int64_t end = NowNs();
    if (m->tracer->on) {
      m->tracer->Add(SpanName::kRpc, m->tracer->current_op, start, end);
    }
    ++m->round_trips;
    m->rtt_ns += end - start;
    m->req_bytes += request.size() + kFrameHeaderBytes;
    m->resp_bytes += response.size() + kFrameHeaderBytes;
    return response;
  };
}

// ------------------------------------------------------------ deployment

/// Server + (optional) durable store + TCP front end + verifying client,
/// torn down in reverse order.
struct Deployment {
  std::unique_ptr<server::UntrustedServer> eve;
  std::unique_ptr<server::DurableStore> store;
  std::unique_ptr<net::NetServer> net;
  std::shared_ptr<net::TcpTransport> tcp;
  std::unique_ptr<crypto::HmacDrbg> rng;
  std::unique_ptr<client::Client> client;
  std::string dir;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() { Close(); }

  void Close() {
    client.reset();
    if (tcp) tcp->Close();
    tcp.reset();
    if (net) net->Stop();
    net.reset();
    if (store) (void)store->Close();
    store.reset();
    eve.reset();
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
      dir.clear();
    }
  }
};

Status Open(const WorkloadSpec& spec, uint64_t seed, const std::string& dir,
            WireMeter* meter, Deployment* d) {
  server::ServerRuntimeOptions options;
  options.num_threads = kServerWorkers;
  d->eve = std::make_unique<server::UntrustedServer>(options);
  d->eve->mutable_observations()->SetMode(server::ObservationMode::kAggregate);
  if (spec.durable) {
    d->dir = dir;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    server::DurableStoreOptions store_options;
    store_options.sync_mode = storage::WalSyncMode::kBatch;
    store_options.checkpoint_interval_ms = 0;  // size-triggered only
    store_options.checkpoint_wal_bytes = kCheckpointWalBytes;
    d->store = std::make_unique<server::DurableStore>(d->eve.get(), dir,
                                                      store_options);
    DBPH_RETURN_IF_ERROR(d->store->Open());
  }
  d->net = std::make_unique<net::NetServer>(d->eve.get(),
                                            net::NetServerOptions{});
  DBPH_RETURN_IF_ERROR(d->net->Start());
  DBPH_ASSIGN_OR_RETURN(d->tcp,
                        net::TcpTransport::Connect("127.0.0.1", d->net->port()));
  d->rng = std::make_unique<crypto::HmacDrbg>("e2ebench-client", seed);
  d->client = std::make_unique<client::Client>(
      ToBytes("e2ebench master key"),
      MeteredTransport(d->tcp->AsTransport(), meter), d->rng.get());
  d->client->set_verify_mode(client::VerifyMode::kEnforce);
  return Status::OK();
}

// ----------------------------------------------------------- statistics

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double ProcStatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

/// Mean of the values a registry histogram recorded between snapshots
/// `a` and `b`.
double HistMean(const obs::RegistrySnapshot& a, const obs::RegistrySnapshot& b,
                const std::string& name) {
  auto ia = a.histograms.find(name);
  auto ib = b.histograms.find(name);
  if (ib == b.histograms.end()) return 0;
  obs::HistogramSnapshot before;
  if (ia != a.histograms.end()) before = ia->second;
  return Ratio(static_cast<double>(ib->second.sum - before.sum),
               static_cast<double>(ib->second.count - before.count));
}

/// Growth of a counter or gauge between snapshots `a` and `b`.
template <typename Map>
double Delta(const Map& a, const Map& b, const std::string& name) {
  auto ia = a.find(name);
  auto ib = b.find(name);
  double va = ia == a.end() ? 0 : static_cast<double>(ia->second);
  double vb = ib == b.end() ? 0 : static_cast<double>(ib->second);
  return vb - va;
}

// ------------------------------------------------------ host-speed probe

/// A fixed integer loop in this file only (the store's crypto gets
/// faster across versions; this loop does not), timed in short windows
/// through the timed phase. A slow run can then be traced to a slow host
/// phase. Reported as a diagnostic, never as a metric.
struct HostProbe {
  std::vector<double> mops;  ///< million loop iterations per second
  int64_t next_ns = 0;
  uint64_t sink = 0;

  void MaybeRun(int64_t now) {
    if (now < next_ns) return;
    int64_t start = NowNs();
    uint64_t x = 0x9e3779b97f4a7c15ULL ^ sink;
    for (uint64_t i = 0; i < kProbeIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x *= 0x2545f4914f6cdd1dULL;
    }
    sink += x;
    int64_t end = NowNs();
    mops.push_back(static_cast<double>(kProbeIters) * 1e3 / (end - start));
    next_ns = end + kProbeEveryNs;
  }
};

// ----------------------------------------------------------- the runner

enum OpType { kSelectOp = 0, kInsertOp = 1, kDeleteOp = 2 };
constexpr SpanName kOpSpan[] = {SpanName::kSelect, SpanName::kInsert,
                                SpanName::kDelete};

/// One window of the timed phase (see kWindows).
struct Window {
  std::vector<double> lat_us[3];  ///< latency samples per op type
  uint64_t ops = 0;               ///< ops of the cycles run in the window
  int64_t busy_ns = 0;            ///< time those cycles took
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/work";
  std::string spans_path;
  size_t docs = 0;    ///< 0 = the workload's size (smaller for self-tests)
};

class Bench {
 public:
  Bench(Args args, WorkloadSpec spec)
      : args_(std::move(args)), spec_(std::move(spec)) {
    if (args_.docs != 0) {
      spec_.docs = args_.docs;
      spec_.hot_keys = std::min(spec_.hot_keys, args_.docs / 4);
    }
    meter_.tracer = &tracer_;
  }

  int Run();

 private:
  /// One complete set-up: fresh deployment, outsource, warm-up.
  Status SetUp();
  /// One op cycle: `reads_per_cycle` selects, then insert + delete.
  void Cycle();
  void Select(const std::string& relation, const std::string& attribute,
              const rel::Value& value, const std::vector<std::string>& want);
  void Insert(const std::string& relation, Model* model,
              const std::string& key, int64_t val);
  void Delete(const std::string& relation, Model* model,
              const std::string& key);
  void WriteCycle();

  /// Op bracket: latency sample, alloc count, op span. `what` (the
  /// predicate or the inserted key) feeds the op-sequence digest.
  uint64_t BeginOp(OpType type, const std::string& what);
  void EndOp(OpType type, uint64_t op_id, bool ok);

  /// Memoizes `queries` in the trapdoor index: one batched select, then a
  /// repeat of any select EXPLAIN still plans as a scan. Memoizing is
  /// best-effort on the server (it skips when a writer, such as a
  /// background checkpoint, holds the dispatch lock); the exact counts
  /// need every warmed predicate to be an index hit.
  Status WarmUp(
      const std::vector<std::pair<std::string, rel::Value>>& queries);

  /// Waits until the durable store's background thread has acted on the
  /// set-up's WAL, so that no set-up checkpoint lands in the timed phase.
  Status QuiesceStore();

  /// Disk footprint per plaintext byte at the current state.
  Result<double> DiskPerUserByte();

  Args args_;
  WorkloadSpec spec_;
  Tracer tracer_;
  WireMeter meter_;
  std::unique_ptr<Deployment> dep_;
  SplitMix rng_{0};
  std::unique_ptr<KeySpace> keys_;
  Model model_;       // main relation
  Model side_model_;  // side relation (read workloads)
  uint64_t next_row_ = 0;       // next fresh main-relation row index
  uint64_t next_side_row_ = 0;  // next fresh side-relation row index
  std::string last_inserted_;
  std::vector<std::string> hot_;
  std::unique_ptr<Zipf> zipf_;
  std::vector<uint64_t> cold_order_;
  size_t cold_next_ = 0;
  std::vector<int64_t> warm_vals_;
  crypto::HmacDrbg probe_rng_{"e2ebench-layer-probe", 0};

  // Per-op bookkeeping.
  int64_t op_start_ns_ = 0;
  uint64_t op_allocs_ = 0;
  std::vector<Window> windows_;  // timed phase; the last one is open
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t alloc_total_ = 0;
  uint64_t ops_total_ = 0;
  uint64_t ops_by_type_[3] = {0, 0, 0};
  std::vector<double> trapdoor_us_, encrypt_us_, decrypt_us_;
  std::string first_error_;
  /// FNV-1a over the op sequence of the counted prefix: equal for equal
  /// seeds, different otherwise (checked by selftest.py).
  uint64_t ops_digest_ = 14695981039346656037ULL;
  bool in_prefix_ = false;
};

uint64_t Bench::BeginOp(OpType type, const std::string& what) {
  ++attempted_;
  if (in_prefix_) {
    auto mix = [this](uint8_t byte) {
      ops_digest_ = (ops_digest_ ^ byte) * 1099511628211ULL;
    };
    mix(static_cast<uint8_t>(type));
    for (char c : what) mix(static_cast<uint8_t>(c));
  }
  uint64_t id = 0;
  if (tracer_.on) {
    id = tracer_.next_id++;
    tracer_.current_op = id;
  }
  op_allocs_ = g_heap_allocs.load(std::memory_order_relaxed);
  op_start_ns_ = NowNs();
  return id;
}

void Bench::EndOp(OpType type, uint64_t op_id, bool ok) {
  int64_t end = NowNs();
  alloc_total_ += g_heap_allocs.load(std::memory_order_relaxed) - op_allocs_;
  ++ops_total_;
  ++ops_by_type_[type];
  windows_.back().lat_us[type].push_back((end - op_start_ns_) / 1e3);
  if (!ok) ++failed_;
  if (tracer_.on) {
    tracer_.spans.push_back(
        {op_id, 0, kOpSpan[type], op_start_ns_, end});
    tracer_.current_op = 0;
  }
}

void Bench::Select(const std::string& relation, const std::string& attribute,
                   const rel::Value& value,
                   const std::vector<std::string>& want) {
  uint64_t id = BeginOp(kSelectOp, attribute + "=" + value.ToDisplayString());
  auto result = dep_->client->Select(relation, attribute, value);
  bool ok = result.ok();
  std::vector<std::string> got;
  const Model& model = relation == kMainRel ? model_ : side_model_;
  if (ok) {
    for (const rel::Tuple& t : result->tuples()) {
      const std::string& key = t.at(0).AsString();
      auto it = model.val_of.find(key);
      if (it == model.val_of.end() || it->second != t.at(1).AsInt()) {
        ok = false;  // a row the model does not hold
      }
      got.push_back(key);
    }
    std::sort(got.begin(), got.end());
    ok = ok && got == want;
  }
  EndOp(kSelectOp, id, ok);
  if (!ok && first_error_.empty()) {
    first_error_ = result.ok() ? "select returned rows the model disagrees with"
                               : result.status().ToString();
  }
  if (tracer_.on && result.ok()) {
    const core::DatabasePh* ph = *dep_->client->SchemeFor(relation);
    int64_t t0 = NowNs();
    auto query = ph->EncryptQuery(relation, attribute, value);
    int64_t t1 = NowNs();
    tracer_.Add(SpanName::kTrapdoor, id, t0, t1);
    trapdoor_us_.push_back((t1 - t0) / 1e3);
    // Decrypt cost per returned row, on fresh encryptions of the rows
    // (the client does not expose the ciphertexts it decrypted).
    size_t sampled = 0;
    for (const rel::Tuple& t : result->tuples()) {
      if (++sampled > 16) break;
      auto doc = ph->EncryptTuple(t, &probe_rng_);
      if (!doc.ok()) continue;
      int64_t d0 = NowNs();
      auto back = ph->DecryptTuple(*doc);
      int64_t d1 = NowNs();
      if (!back.ok() || !(*back == t)) {
        ++failed_;
        if (first_error_.empty()) first_error_ = "DecryptTuple round trip";
      }
      tracer_.Add(SpanName::kDecryptRow, id, d0, d1);
      decrypt_us_.push_back((d1 - d0) / 1e3);
    }
  }
}

void Bench::Insert(const std::string& relation, Model* model,
                   const std::string& key, int64_t val) {
  rel::Tuple tuple = MakeTuple(key, val);
  uint64_t id = BeginOp(kInsertOp, key);
  Status s = dep_->client->Insert(relation, {tuple});
  EndOp(kInsertOp, id, s.ok());
  if (s.ok()) {
    model->Add(key, val);
  } else if (first_error_.empty()) {
    first_error_ = s.ToString();
  }
  if (tracer_.on) {
    const core::DatabasePh* ph = *dep_->client->SchemeFor(relation);
    int64_t t0 = NowNs();
    auto doc = ph->EncryptTuple(tuple, &probe_rng_);
    int64_t t1 = NowNs();
    (void)doc;
    tracer_.Add(SpanName::kEncryptTuple, id, t0, t1);
    encrypt_us_.push_back((t1 - t0) / 1e3);
  }
}

void Bench::Delete(const std::string& relation, Model* model,
                   const std::string& key) {
  rel::Value value = rel::Value::Str(key);
  uint64_t id = BeginOp(kDeleteOp, key);
  auto removed = dep_->client->DeleteWhere(relation, "key", value);
  bool ok = removed.ok() && *removed == 1;
  EndOp(kDeleteOp, id, ok);
  if (ok) {
    model->Remove(key);
  } else if (first_error_.empty()) {
    first_error_ = removed.ok() ? "delete removed " + std::to_string(*removed) +
                                      " rows, want 1"
                                : removed.status().ToString();
  }
  if (tracer_.on) {
    const core::DatabasePh* ph = *dep_->client->SchemeFor(relation);
    int64_t t0 = NowNs();
    auto query = ph->EncryptQuery(relation, "key", value);
    int64_t t1 = NowNs();
    tracer_.Add(SpanName::kTrapdoor, id, t0, t1);
    trapdoor_us_.push_back((t1 - t0) / 1e3);
  }
}

/// Insert one fresh row, delete the row inserted one cycle earlier: the
/// relation size stays constant, so per-op cost does not drift.
void Bench::WriteCycle() {
  const bool side = spec_.side_writes;
  const char* relation = side ? kSideRel : kMainRel;
  Model* model = side ? &side_model_ : &model_;
  uint64_t row = side ? next_side_row_++ : next_row_++;
  std::string key = keys_->Key(row, side ? 'w' : 'k');
  int64_t val = static_cast<int64_t>(rng_.Below(100));
  std::string previous = last_inserted_;
  Insert(relation, model, key, val);
  last_inserted_ = key;
  Delete(relation, model, previous);
}

void Bench::Cycle() {
  for (size_t i = 0; i < spec_.reads_per_cycle; ++i) {
    if (spec_.name == "point_hot") {
      const std::string& key = hot_[zipf_->Draw(&rng_)];
      Select(kMainRel, "key", rel::Value::Str(key), {key});
    } else if (spec_.name == "scan_cold") {
      const std::string key = keys_->Key(cold_order_[cold_next_++]);
      Select(kMainRel, "key", rel::Value::Str(key), {key});
    } else {
      int64_t val = warm_vals_[rng_.Below(warm_vals_.size())];
      const auto& keys = model_.keys_of[val];
      Select(kMainRel, "val", rel::Value::Int(val),
             std::vector<std::string>(keys.begin(), keys.end()));
    }
  }
  WriteCycle();
}

Status Bench::SetUp() {
  dep_ = std::make_unique<Deployment>();
  meter_ = WireMeter{};
  meter_.tracer = &tracer_;
  model_ = Model{};
  side_model_ = Model{};
  rng_ = SplitMix{args_.seed * 0x9e3779b97f4a7c15ULL + 1};
  next_side_row_ = 0;
  keys_ = std::make_unique<KeySpace>(&rng_);

  std::string dir = args_.workdir + "/store-" + std::to_string(::getpid());
  DBPH_RETURN_IF_ERROR(Open(spec_, args_.seed, dir, &meter_, dep_.get()));
  client::Client& client = *dep_->client;

  rel::Relation table = MakeRelation(kMainRel, spec_.docs, *keys_, &rng_,
                                     &model_);
  DBPH_RETURN_IF_ERROR(client.Outsource(table));
  next_row_ = spec_.docs;
  if (spec_.side_writes) {
    KeySpace side_keys(&rng_);
    rel::Relation side(kSideRel, BenchSchema());
    for (size_t i = 0; i < kSideDocs; ++i) {
      std::string key = side_keys.Key(i, 's');
      int64_t val = static_cast<int64_t>(rng_.Below(100));
      side_model_.Add(key, val);
      (void)side.Insert(MakeTuple(key, val));
    }
    DBPH_RETURN_IF_ERROR(client.Outsource(side));
  }

  // Warm-up: memoize the predicates the timed ops repeat.
  if (spec_.hot_keys > 0) {
    hot_.clear();
    for (uint64_t i : SamplePermutation(spec_.docs, spec_.hot_keys, &rng_)) {
      hot_.push_back(keys_->Key(i));
    }
    zipf_ = std::make_unique<Zipf>(hot_.size());
    std::vector<std::pair<std::string, rel::Value>> queries;
    for (const std::string& key : hot_) {
      queries.emplace_back("key", rel::Value::Str(key));
    }
    DBPH_RETURN_IF_ERROR(WarmUp(queries));
  }
  if (spec_.name == "scan_cold") {
    cold_order_ = SamplePermutation(spec_.docs, spec_.docs, &rng_);
    cold_next_ = 0;
  }
  if (spec_.warm_vals > 0) {
    warm_vals_.clear();
    for (uint64_t v : SamplePermutation(100, spec_.warm_vals, &rng_)) {
      warm_vals_.push_back(static_cast<int64_t>(v));
    }
    std::vector<std::pair<std::string, rel::Value>> queries;
    for (int64_t v : warm_vals_) queries.emplace_back("val", rel::Value::Int(v));
    DBPH_RETURN_IF_ERROR(WarmUp(queries));
  }
  // The first cycle deletes the row this seeds.
  const bool side = spec_.side_writes;
  std::string seed_key = side ? keys_->Key(next_side_row_++, 'w')
                              : keys_->Key(next_row_++);
  int64_t seed_val = static_cast<int64_t>(rng_.Below(100));
  DBPH_RETURN_IF_ERROR(client.Insert(side ? kSideRel : kMainRel,
                                     {MakeTuple(seed_key, seed_val)}));
  (side ? side_model_ : model_).Add(seed_key, seed_val);
  last_inserted_ = seed_key;
  // Start the timed phase from an empty WAL, so its contents after the
  // counted prefix are a function of the seed alone.
  if (dep_->store) DBPH_RETURN_IF_ERROR(dep_->store->Checkpoint());
  return Status::OK();
}

Status Bench::WarmUp(
    const std::vector<std::pair<std::string, rel::Value>>& queries) {
  client::Client& client = *dep_->client;
  DBPH_ASSIGN_OR_RETURN(auto warmed, client.SelectBatch(kMainRel, queries));
  (void)warmed;
  for (const auto& [attribute, value] : queries) {
    for (int attempt = 0;; ++attempt) {
      DBPH_ASSIGN_OR_RETURN(auto plan,
                            client.Explain(kMainRel, attribute, value));
      if (plan.access_path == protocol::PlanAccessPath::kIndexLookup) break;
      if (attempt == 100) {
        return Status::Internal("warm-up predicate never memoized");
      }
      DBPH_ASSIGN_OR_RETURN(auto again,
                            client.Select(kMainRel, attribute, value));
      (void)again;
    }
  }
  return Status::OK();
}

Status Bench::QuiesceStore() {
  if (!dep_->store) return Status::OK();
  // The background thread may have read the pre-checkpoint WAL size and
  // checkpoint again; two quiet ticks in a row mean it has settled.
  const auto tick = std::chrono::milliseconds(
      3 * server::DurableStoreOptions{}.sync_interval_ms);
  for (int quiet = 0, i = 0; quiet < 2; ++i) {
    if (i == 100) return Status::Internal("durable store did not settle");
    server::DurableStore::Stats before = dep_->store->stats();
    std::this_thread::sleep_for(tick);
    server::DurableStore::Stats after = dep_->store->stats();
    bool settled = after.checkpoints == before.checkpoints &&
                   after.wal_bytes == before.wal_bytes;
    quiet = settled ? quiet + 1 : 0;
  }
  return Status::OK();
}

Result<double> Bench::DiskPerUserByte() {
  size_t plain = model_.plain_bytes + side_model_.plain_bytes;
  if (dep_->store) {
    namespace fs = std::filesystem;
    uint64_t bytes = fs::file_size(dep_->store->snapshot_path()) +
                     fs::file_size(dep_->store->wal_path());
    return Ratio(static_cast<double>(bytes), static_cast<double>(plain));
  }
  // Memory-only deployment: the bytes its first checkpoint would write.
  size_t image = 0;
  DBPH_RETURN_IF_ERROR(dep_->eve->WithDispatchLock([&]() -> Status {
    DBPH_ASSIGN_OR_RETURN(Bytes state, dep_->eve->SerializeState());
    image = state.size();
    return Status::OK();
  }));
  return Ratio(static_cast<double>(image), static_cast<double>(plain));
}

/// Shortest text that reads back as exactly `v`: every digit measured.
std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, ec == std::errc() ? end : buf);
}

struct MetricOut {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<MetricOut>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

int Bench::Run() {
  // ---- set-up; the first deployment is measured ----
  std::vector<double> setup_s;
  auto set_up = [&] {
    dep_.reset();  // tear-down is not set-up time
    malloc_trim(0);
    int64_t t0 = NowNs();
    Status s = SetUp();
    if (!s.ok()) {
      std::fprintf(stderr, "e2e_bench: set-up failed: %s\n",
                   s.ToString().c_str());
      return false;
    }
    setup_s.push_back((NowNs() - t0) / 1e9);
    return true;
  };
  if (!set_up()) return 2;
  if (Status s = QuiesceStore(); !s.ok()) {
    std::fprintf(stderr, "e2e_bench: %s\n", s.ToString().c_str());
    return 2;
  }

  // ---- timed phase ----
  std::fill(std::begin(ops_by_type_), std::end(ops_by_type_), 0);
  windows_.assign(1, Window{});
  attempted_ = failed_ = alloc_total_ = ops_total_ = 0;
  tracer_.spans.clear();
  // Room for every span of a traced run, so recording never reallocates
  // inside an op.
  tracer_.spans.reserve(args_.trace ? 1u << 20 : 0);

  obs::RegistrySnapshot stats_start, stats_prefix, stats_end;
  server::DurableStore::Stats store_start{}, store_prefix{}, store_end{};
  if (dep_->store) store_start = dep_->store->stats();
  if (args_.trace) {
    auto st = dep_->client->Stats();
    if (!st.ok()) return 2;
    stats_start = *st;
  }
  const uint64_t verify_count0 = dep_->client->verify_latency().Count();
  const uint64_t verify_sum0 = dep_->client->verify_latency().Sum();
  const WireMeter wire_start = meter_;
  WireMeter wire_prefix{};
  uint64_t ops_prefix = 0, selects_prefix = 0, inserts_prefix = 0,
           mutations_prefix = 0;
  double disk_per_byte = 0;

  HostProbe probe;
  int64_t excluded_ns = 0;  // probe + mid-run measurement time
  int64_t traced_ns = 0, untraced_ns = 0;
  uint64_t traced_ops = 0, untraced_ops = 0;
  const int64_t budget_ns = static_cast<int64_t>(args_.seconds * 1e9);
  const int64_t window_ns = budget_ns / kWindows;
  const int64_t phase_start = NowNs();
  probe.next_ns = phase_start;
  uint64_t cycles = 0;
  int64_t block_start = phase_start;
  int64_t window_start = phase_start;
  bool traced_block = false;
  tracer_.on = false;
  in_prefix_ = true;
  // scan_cold never repeats a key, so a small (self-test) relation can
  // run out of cold keys before the time is up.
  auto keys_left = [&] {
    return spec_.name != "scan_cold" ||
           cold_next_ + spec_.reads_per_cycle <= cold_order_.size();
  };
  while ((cycles < spec_.count_cycles ||
          NowNs() - phase_start - excluded_ns < budget_ns) &&
         keys_left()) {
    uint64_t ops_before = ops_total_;
    int64_t c0 = NowNs();
    Cycle();
    int64_t c1 = NowNs();
    (traced_block ? traced_ns : untraced_ns) += c1 - c0;
    (traced_block ? traced_ops : untraced_ops) += ops_total_ - ops_before;
    windows_.back().ops += ops_total_ - ops_before;
    windows_.back().busy_ns += c1 - c0;
    if (c1 - window_start >= window_ns) {
      windows_.emplace_back();
      window_start = c1;
    }
    ++cycles;
    if (cycles == spec_.count_cycles) {
      int64_t m0 = NowNs();
      in_prefix_ = false;
      wire_prefix = meter_;
      ops_prefix = ops_total_;
      selects_prefix = ops_by_type_[kSelectOp];
      inserts_prefix = ops_by_type_[kInsertOp];
      mutations_prefix = ops_by_type_[kInsertOp] + ops_by_type_[kDeleteOp];
      if (dep_->store) {
        store_prefix = dep_->store->stats();
        // A checkpoint truncates the WAL, after which its growth no longer
        // counts the prefix's mutations: fail rather than report a wrong
        // storage.wal_bytes_per_mutation.
        if (store_prefix.checkpoints != store_start.checkpoints) {
          std::fprintf(stderr,
                       "e2e_bench: a checkpoint fell in the counted prefix "
                       "(WAL at %llu of %llu bytes)\n",
                       static_cast<unsigned long long>(store_prefix.wal_bytes),
                       static_cast<unsigned long long>(kCheckpointWalBytes));
          return 2;
        }
        auto disk = DiskPerUserByte();
        if (!disk.ok()) return 2;
        disk_per_byte = *disk;
      }
      if (args_.trace) {
        bool was_on = tracer_.on;
        tracer_.on = false;
        auto st = dep_->client->Stats();
        tracer_.on = was_on;
        if (!st.ok()) return 2;
        stats_prefix = *st;
      }
      excluded_ns += NowNs() - m0;
    }
    int64_t now = NowNs();
    int64_t p0 = now;
    probe.MaybeRun(now);
    excluded_ns += NowNs() - p0;
    if (args_.trace && now - block_start >= kTraceBlockNs) {
      traced_block = !traced_block;
      tracer_.on = traced_block;
      block_start = NowNs();
    }
  }
  // The loop overruns the budget by the excluded time, which leaves a
  // short last window; it joins the one before.
  if (windows_.size() > 1 && windows_.back().busy_ns < window_ns / 2) {
    Window last = std::move(windows_.back());
    windows_.pop_back();
    Window& w = windows_.back();
    for (int t = 0; t < 3; ++t) {
      w.lat_us[t].insert(w.lat_us[t].end(), last.lat_us[t].begin(),
                         last.lat_us[t].end());
    }
    w.ops += last.ops;
    w.busy_ns += last.busy_ns;
  }
  tracer_.on = false;
  const WireMeter wire_end = meter_;
  if (dep_->store) store_end = dep_->store->stats();
  if (args_.trace) {
    auto st = dep_->client->Stats();
    if (!st.ok()) return 2;
    stats_end = *st;
  }
  // Let an in-flight checkpoint finish and hand freed pages back, so
  // rss_mb is what the deployment holds rather than what a checkpoint or
  // the allocator happens to hold at the instant the clock stops.
  if (Status s = QuiesceStore(); !s.ok()) {
    std::fprintf(stderr, "e2e_bench: %s\n", s.ToString().c_str());
    return 2;
  }
  malloc_trim(0);
  const double rss_mb = ProcStatusMb("VmRSS:");
  const double peak_rss_mb = ProcStatusMb("VmHWM:");
  // The memory-only image is built after the peak is read, so that the
  // benchmark's own copy of the state does not count in peak_rss_mb.
  if (!dep_->store) {
    auto disk = DiskPerUserByte();
    if (!disk.ok()) return 2;
    disk_per_byte = *disk;
  }
  const uint64_t verify_count = dep_->client->verify_latency().Count() -
                                verify_count0;
  const uint64_t verify_sum = dep_->client->verify_latency().Sum() -
                              verify_sum0;
  // The remaining set-ups for setup_s come after the measured deployment
  // is read: freed pages of earlier deployments stay behind in whichever
  // thread's malloc arena held them, and made write_mix's rss_mb land at
  // 34, 37 or 45 MB from run to run with the same heap in use.
  for (int i = 1; i < kSetups; ++i) {
    if (!set_up()) return 2;
  }

  const bool correct = failed_ == 0 && attempted_ > 0;
  const double prefix_ops = static_cast<double>(ops_prefix);
  const double wire_bytes_prefix = static_cast<double>(
      wire_prefix.req_bytes - wire_start.req_bytes +
      wire_prefix.resp_bytes - wire_start.resp_bytes);

  // ---- diagnostics (not metrics) ----
  {
    std::vector<double> sorted = probe.mops;
    std::sort(sorted.begin(), sorted.end());
    std::printf(
        "{\"diagnostic\": \"host_speed\", \"windows\": %zu, "
        "\"min_mops\": %s, \"p50_mops\": %s, \"max_mops\": %s, "
        "\"error_rate\": %s, \"ops\": %llu, \"cycles\": %llu, "
        "\"timed_windows\": %zu, "
        "\"ops_digest\": \"%016llx\", \"prefix_wal_bytes\": %llu, "
        "\"setup_s\": [",
        sorted.size(), Num(sorted.empty() ? 0 : sorted.front()).c_str(),
        Num(Median(sorted)).c_str(),
        Num(sorted.empty() ? 0 : sorted.back()).c_str(),
        Num(Ratio(failed_, attempted_)).c_str(),
        static_cast<unsigned long long>(ops_total_),
        static_cast<unsigned long long>(cycles), windows_.size(),
        static_cast<unsigned long long>(ops_digest_),
        static_cast<unsigned long long>(store_prefix.wal_bytes -
                                        store_start.wal_bytes));
    for (size_t i = 0; i < setup_s.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", Num(setup_s[i]).c_str());
    }
    std::string error;
    for (char c : first_error_) {
      if (c == '"' || c == '\\') error += '\\';
      if (c >= ' ') error += c;
    }
    std::printf("], \"first_error\": \"%s\"}\n", error.c_str());
  }

  if (args_.trace && !args_.spans_path.empty()) {
    std::ofstream out(args_.spans_path, std::ios::trunc);
    for (const Span& s : tracer_.spans) {
      out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"name\": \"" << SpanNameText(s.name)
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << "}\n";
    }
  }

  std::vector<MetricOut> metrics;
  if (!args_.trace) {
    auto lat = [&](OpType t, double q) {
      std::vector<double> per_window;
      for (const Window& w : windows_) {
        if (w.lat_us[t].empty()) continue;
        per_window.push_back(Percentile(w.lat_us[t], q));
      }
      return Median(per_window);
    };
    std::vector<double> ops_s;
    for (const Window& w : windows_) {
      if (w.busy_ns > 0) ops_s.push_back(w.ops / (w.busy_ns / 1e9));
    }
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"ops_s", Median(ops_s), "1/s"},
        {"select_p50_us", lat(kSelectOp, 0.5), "us"},
        {"select_p90_us", lat(kSelectOp, 0.9), "us"},
        {"insert_p50_us", lat(kInsertOp, 0.5), "us"},
        {"insert_p90_us", lat(kInsertOp, 0.9), "us"},
        {"delete_p50_us", lat(kDeleteOp, 0.5), "us"},
        {"delete_p90_us", lat(kDeleteOp, 0.9), "us"},
        {"wire_bytes_per_op", Ratio(wire_bytes_prefix, prefix_ops), "bytes"},
        {"rss_mb", rss_mb, "MB"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"disk_bytes_per_user_byte", disk_per_byte, "ratio"},
    };
  } else {
    // Self time of each op: its span minus the round trips inside it.
    std::unordered_map<uint64_t, int64_t> rpc_ns;
    std::vector<const Span*> ops;
    for (const Span& s : tracer_.spans) {
      if (s.name == SpanName::kRpc) {
        rpc_ns[s.parent] += s.end_ns - s.start_ns;
      } else if (s.parent == 0) {
        ops.push_back(&s);
      }
    }
    double self_sum = 0;
    for (const Span* op : ops) {
      self_sum += (op->end_ns - op->start_ns - rpc_ns[op->id]) / 1e3;
    }
    auto mean = [](const std::vector<double>& v) {
      double sum = 0;
      for (double x : v) sum += x;
      return Ratio(sum, static_cast<double>(v.size()));
    };
    const obs::RegistrySnapshot& a = stats_start;
    const obs::RegistrySnapshot& b = stats_end;
    const double handle_us = HistMean(a, b, "dbph_dispatch_handle_seconds");
    // Every round trip of the timed phase, the same requests the server's
    // handle histogram covers.
    const double rtt =
        Ratio((wire_end.rtt_ns - wire_start.rtt_ns) / 1e3,
              static_cast<double>(wire_end.round_trips - wire_start.round_trips));
    const double hits = Delta(a.gauges, b.gauges, "dbph_index_hits");
    const double misses = Delta(a.gauges, b.gauges, "dbph_index_misses");
    const double untraced_ops_s = Ratio(untraced_ops, untraced_ns / 1e9);
    const double traced_ops_s = Ratio(traced_ops, traced_ns / 1e9);
    const double wal_prefix_bytes =
        static_cast<double>(store_prefix.wal_bytes) -
        static_cast<double>(store_start.wal_bytes);
    metrics = {
        {"client.self_us", Ratio(self_sum, ops.size()), "us"},
        {"client.verify_us", Ratio(verify_sum, verify_count), "us"},
        {"dbph.trapdoor_us", mean(trapdoor_us_), "us"},
        {"dbph.encrypt_tuple_us", mean(encrypt_us_), "us"},
        {"dbph.decrypt_row_us", mean(decrypt_us_), "us"},
        {"net.rtt_us", rtt, "us"},
        {"net.self_us", rtt - handle_us, "us"},
        {"net.round_trips_per_op",
         Ratio(wire_prefix.round_trips - wire_start.round_trips, prefix_ops),
         "count"},
        {"net.req_bytes_per_op",
         Ratio(wire_prefix.req_bytes - wire_start.req_bytes, prefix_ops),
         "bytes"},
        {"net.resp_bytes_per_op",
         Ratio(wire_prefix.resp_bytes - wire_start.resp_bytes, prefix_ops),
         "bytes"},
        {"server.handle_us", handle_us, "us"},
        {"server.lock_wait_us",
         HistMean(a, b, "dbph_dispatch_lock_wait_seconds"), "us"},
        {"server.parse_us", HistMean(a, b, "dbph_query_parse_seconds"), "us"},
        {"server.plan_us", HistMean(a, b, "dbph_query_plan_seconds"), "us"},
        {"server.execute_index_us",
         HistMean(a, b, "dbph_query_execute_index_seconds"), "us"},
        {"server.execute_scan_us",
         HistMean(a, b, "dbph_query_execute_scan_seconds"), "us"},
        {"server.proof_us",
         HistMean(a, b, "dbph_integrity_proof_build_seconds"), "us"},
        {"server.serialize_us",
         HistMean(a, b, "dbph_query_serialize_seconds"), "us"},
        {"server.match_evals_per_select",
         Ratio(Delta(a.counters, stats_prefix.counters,
                     "dbph_scan_match_evals_total"),
               selects_prefix),
         "count"},
        {"server.index_hit_ratio", Ratio(hits, hits + misses), "ratio"},
        {"server.index_append_evals_per_insert",
         Ratio(Delta(a.gauges, stats_prefix.gauges, "dbph_index_append_evals"),
               inserts_prefix),
         "count"},
        {"storage.wal_bytes_per_mutation",
         Ratio(wal_prefix_bytes, mutations_prefix), "bytes"},
        {"storage.checkpoints",
         static_cast<double>(store_end.checkpoints - store_start.checkpoints),
         "count"},
        {"storage.checkpoint_s",
         HistMean(a, b, "dbph_checkpoint_seconds") / 1e6, "s"},
        {"storage.fsync_us", HistMean(a, b, "dbph_wal_fsync_seconds"), "us"},
        {"proc.heap_allocs_per_op", Ratio(alloc_total_, ops_total_), "count"},
        {"proc.tracing_overhead", Ratio(untraced_ops_s, traced_ops_s) - 1,
         "ratio"},
    };
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (arg.compare(0, prefix.size(), prefix) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i], v;
    if (ParseFlag(arg, "workload", &v)) {
      args.workload = v;
    } else if (ParseFlag(arg, "seed", &v)) {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "seconds", &v)) {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(arg, "trace", &v)) {
      args.trace = v == "1";
    } else if (ParseFlag(arg, "workdir", &v)) {
      args.workdir = v;
    } else if (ParseFlag(arg, "spans", &v)) {
      args.spans_path = v;
    } else if (ParseFlag(arg, "docs", &v)) {
      args.docs = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "e2e_bench: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  auto spec = SpecFor(args.workload);
  if (!spec.ok()) {
    std::fprintf(stderr, "e2e_bench: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  Bench bench(args, *spec);
  return bench.Run();
}
