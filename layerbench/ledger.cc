// layer_ledger — the layer-ledger benchmark driver.
//
//   layer_ledger --workload <dense-engine|sparse-fleet|mixed-batch>
//                --seed <n> --seconds <s> --trace <0|1>
//                [--out-dir <dir>] [--fault <none|drop|add>]
//
// Generates the workload's stream from the seed, then:
//   --trace 0  replays it through the workload's top layer, pass after
//              pass, for --seconds (closed loop, one client thread, no
//              tracing), and prints the end-to-end metrics;
//   --trace 1  replays it once per layer, bottom up, recording a span per
//              call, and prints the per-layer metrics.
// Either way the output is checked: every pass against the bare JoinCore
// replay of the full stream, and that replay against the brute-force
// oracle on a fixed prefix. The last stdout line is one JSON object
// {correct, attempted, failed, metrics}; the exit code is 1 on any
// mismatch or failed call. --fault makes the top layer's sink drop or
// duplicate one pair per pass, to show the check catches it.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "cluster/wire.h"
#include "core/brute_force.h"
#include "data/profiles.h"
#include "layers.h"
#include "util/simd.h"

namespace ledger {
namespace {

using sssj::Framework;
using sssj::IndexScheme;
using sssj::VectorId;

// ---------------------------------------------------------------- workloads

struct WorkloadSpec {
  const char* name;
  Layer top;
  sssj::DatasetProfile profile;
  double scale;  // stream length, as a multiple of the profile's default
  double theta;
  double lambda;
  std::vector<SessionSpec> sessions;
  bool shared_stream;    // every session gets the same items
  size_t batch_size;     // 1 = per-item Push, else PushBatch of this many
  size_t oracle_prefix;  // brute force checks the first this-many items
};

// Why these three: see README.md. In short, dense-engine is index-bound
// with no service code on the path; sparse-fleet is per-call-overhead-
// bound through every layer up to the forked fleet; mixed-batch runs the
// three schemes whose index and stream costs differ most, batched so the
// per-call service cost is amortized.
std::vector<WorkloadSpec> Workloads() {
  const Framework kStr = Framework::kStreaming;
  const Framework kMb = Framework::kMiniBatch;
  return {
      {"dense-engine", Layer::kEngine, sssj::DatasetProfile::kWebSpam, 2.0,
       0.7, 1e-3, {{"dense", kStr, IndexScheme::kL2}}, true, 1, 600},
      {"sparse-fleet", Layer::kFleet, sssj::DatasetProfile::kTweets, 0.25,
       0.7, 0.01,
       {{"tweets-0", kStr, IndexScheme::kL2},
        {"tweets-1", kStr, IndexScheme::kL2},
        {"tweets-2", kStr, IndexScheme::kL2},
        {"tweets-3", kStr, IndexScheme::kL2}},
       false, 1, 0},
      // 11,000 items in batches of 32: >= 1,000 calls per pass, of which
      // the ~30 MB window closes are ~3%, so p99 falls among the closes
      // rather than on the edge between them and the STR calls.
      {"mixed-batch", Layer::kService, sssj::DatasetProfile::kBlogs, 2.75,
       0.7, 1e-3,
       {{"str-l2", kStr, IndexScheme::kL2},
        {"str-inv", kStr, IndexScheme::kInv},
        {"mb-l2", kMb, IndexScheme::kL2}},
       true, 32, 1000},
  };
}

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Input MakeInput(const WorkloadSpec& spec, uint64_t seed) {
  Input input;
  input.sessions = spec.sessions;
  const size_t num_streams = spec.shared_stream ? 1 : spec.sessions.size();
  for (size_t k = 0; k < num_streams; ++k) {
    sssj::Stream stream = sssj::GenerateProfile(
        spec.profile, spec.scale, Mix(seed * 16 + k));
    for (size_t i = 0; i < stream.size(); ++i) stream[i].id = i;
    input.streams.push_back(std::move(stream));
  }
  for (size_t s = 0; s < spec.sessions.size(); ++s) {
    input.stream_of.push_back(spec.shared_stream ? 0 : s);
  }
  input.batch_size = spec.batch_size;
  if (spec.batch_size > 1) {
    for (const sssj::Stream& stream : input.streams) {
      std::vector<sssj::Stream> cut;
      for (size_t b = 0; b < stream.size(); b += spec.batch_size) {
        const size_t e = std::min(stream.size(), b + spec.batch_size);
        cut.emplace_back(stream.begin() + b, stream.begin() + e);
      }
      input.batches.push_back(std::move(cut));
    }
  }
  input.config.theta = spec.theta;
  input.config.lambda = spec.lambda;
  // A workload that reaches the cluster layers runs every layer with the
  // config the cluster resolves (migration enabled), so all layers of the
  // replay do the same index work.
  if (spec.top >= Layer::kClient) {
    input.config = sssj::cluster::WireConfig::FromEngineConfig(input.config)
                       .ToEngineConfig();
  }
  return input;
}

// The closed-loop call order: item by item (or batch by batch), sessions
// interleaved round-robin. `per_item` splits batches into single pushes,
// for the JoinCore layer whose entry point is per item.
std::vector<Call> MakeSchedule(const Input& input, bool per_item) {
  std::vector<Call> calls;
  size_t longest = 0;
  for (const sssj::Stream& s : input.streams) longest = std::max(longest, s.size());
  const size_t step = per_item ? 1 : input.batch_size;
  for (size_t b = 0; b < longest; b += input.batch_size) {
    for (size_t s = 0; s < input.sessions.size(); ++s) {
      const size_t n = input.stream(s).size();
      for (size_t i = b; i < std::min(n, b + input.batch_size); i += step) {
        calls.push_back(Call{static_cast<uint32_t>(s), static_cast<uint32_t>(i),
                             static_cast<uint32_t>(std::min(step, n - i))});
      }
    }
  }
  return calls;
}

// ------------------------------------------------------------ output check

enum class Fault { kNone, kDrop, kAdd };

using IdPair = std::pair<VectorId, VectorId>;

// Per-session pair log. With a fault armed it drops, or reports twice,
// the first pair it sees.
class PairLog : public sssj::ResultSink {
 public:
  void Arm(Fault fault) { fault_ = fault; }
  void Emit(const sssj::ResultPair& p) override {
    const IdPair id{std::min(p.a, p.b), std::max(p.a, p.b)};
    if (fault_ != Fault::kNone) {
      const Fault fault = fault_;
      fault_ = Fault::kNone;
      if (fault == Fault::kDrop) return;
      pairs_.push_back(id);
    }
    pairs_.push_back(id);
  }
  std::vector<IdPair> Sorted() const {
    std::vector<IdPair> sorted = pairs_;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }

 private:
  Fault fault_ = Fault::kNone;
  std::vector<IdPair> pairs_;
};

// |a Δ b| as multisets (both sorted).
uint64_t SymmetricDifference(const std::vector<IdPair>& a,
                             const std::vector<IdPair>& b) {
  uint64_t diff = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      ++diff, ++i;
    } else if (i == a.size() || b[j] < a[i]) {
      ++diff, ++j;
    } else {
      ++i, ++j;
    }
  }
  return diff;
}

uint64_t Digest(const std::vector<IdPair>& sorted) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the id words
  for (const IdPair& p : sorted) {
    for (uint64_t w : {static_cast<uint64_t>(p.first),
                       static_cast<uint64_t>(p.second)}) {
      h = (h ^ w) * 0x100000001b3ull;
    }
  }
  return h;
}

// The exact oracle on a stream's first `n` items. Pairs among those items
// depend on nothing after them, so an engine's pairs with both ids < n
// must be exactly the oracle's. A 1e-9 band around theta absorbs
// summation-order rounding on razor-edge pairs: an oracle pair is
// required only if its similarity is >= theta + 1e-9, and a reported pair
// is spurious only if its similarity is < theta - 1e-9.
struct Oracle {
  size_t n = 0;
  std::vector<IdPair> allowed;   // sorted
  std::vector<IdPair> required;  // sorted
};

Oracle BuildOracle(const sssj::Stream& stream, size_t prefix, double theta,
                   double lambda) {
  Oracle oracle;
  oracle.n = prefix == 0 ? stream.size() : std::min(prefix, stream.size());
  const sssj::Stream head(stream.begin(), stream.begin() + oracle.n);
  sssj::DecayParams loose;
  sssj::DecayParams::Make(theta - 1e-9, lambda, &loose);
  sssj::CollectorSink sink;
  sssj::BruteForceStreamJoin(head, loose, &sink);
  for (const sssj::ResultPair& p : sink.pairs()) {
    const IdPair id{std::min(p.a, p.b), std::max(p.a, p.b)};
    oracle.allowed.push_back(id);
    if (p.sim >= theta + 1e-9) oracle.required.push_back(id);
  }
  std::sort(oracle.allowed.begin(), oracle.allowed.end());
  std::sort(oracle.required.begin(), oracle.required.end());
  return oracle;
}

// Spurious, duplicate and missing pairs among the oracle's items.
uint64_t OracleMismatches(const Oracle& oracle,
                          const std::vector<IdPair>& sorted_pairs) {
  std::vector<IdPair> reported;
  for (const IdPair& p : sorted_pairs) {
    if (p.second < oracle.n) reported.push_back(p);
  }
  uint64_t mismatches = 0;
  for (size_t k = 0; k < reported.size(); ++k) {
    const bool duplicate = k > 0 && reported[k] == reported[k - 1];
    if (duplicate || !std::binary_search(oracle.allowed.begin(),
                                         oracle.allowed.end(), reported[k])) {
      ++mismatches;
    }
  }
  for (const IdPair& p : oracle.required) {
    if (!std::binary_search(reported.begin(), reported.end(), p)) ++mismatches;
  }
  return mismatches;
}

// ------------------------------------------------------------ one replay

const char* CallSpanName(Layer layer) {
  static const char* const kNames[kNumLayers] = {
      "stream.push", "engine.push", "service.push",
      "client.push", "wire.call",   "fleet.push"};
  return kNames[static_cast<int>(layer)];
}

struct Pass {
  sssj::Status status;  // first failure of Open/Migrate/StateBytes/Close
  uint64_t items = 0;   // item pushes attempted
  uint64_t failed_items = 0;
  std::vector<int64_t> call_ns;
  int64_t call_total_ns = 0;
  int64_t busy_ns = 0;  // calls + migration + final close
  double setup_s = 0;
  double close_ms = 0;
  double migrate_ms = 0;
  uint64_t state_bytes = 0;
  bool has_stats = false;
  sssj::RunStats stats;
  WireSplit split;
  double flush_ms = 0;
  double create_ms = 0;
  double start_ms = 0;
  uint64_t restarts = 0;
  std::vector<std::vector<IdPair>> pairs;  // per session, sorted
};

// Replays `schedule` through `layer`. With `migrate`, every session is
// migrated once, when half the calls are done. With a tracer, records one
// span per call (and the wire layer's codec spans beneath it).
Pass RunPass(Layer layer, const Input& input, const std::vector<Call>& schedule,
             bool migrate, Tracer* tracer, Fault fault) {
  Pass pass;
  std::vector<PairLog> logs(input.sessions.size());
  std::vector<sssj::ResultSink*> sinks;
  for (PairLog& log : logs) {
    log.Arm(fault);
    sinks.push_back(&log);
    fault = Fault::kNone;  // one pair per pass, on the first session
  }
  std::unique_ptr<LayerDriver> driver = MakeDriver(layer, input, sinks);
  const size_t migrate_at =
      migrate ? schedule.size() / 2 : schedule.size() + 1;
  pass.call_ns.reserve(schedule.size());

  auto finish = [&](sssj::Status status) {
    pass.status = std::move(status);
    pass.split = driver->wire_split();
    pass.flush_ms = driver->flush_ms();
    pass.create_ms = driver->create_ms();
    pass.start_ms = driver->start_ms();
    pass.restarts = driver->restarts();
    driver.reset();  // the fleet shuts down and reaps its workers here
    for (const PairLog& log : logs) pass.pairs.push_back(log.Sorted());
    return std::move(pass);
  };

  const int64_t open_start = NowNs();
  sssj::Status status = driver->Open();
  pass.setup_s = (NowNs() - open_start) / 1e9;
  if (!status.ok()) return finish(status);

  for (size_t i = 0; i < schedule.size(); ++i) {
    if (i == migrate_at) {
      const int64_t t0 = NowNs();
      status = driver->MigrateAll();
      const int64_t t1 = NowNs();
      if (tracer != nullptr) {
        tracer->Record("fleet.migrate", t0, t1, -1, static_cast<uint32_t>(i));
      }
      pass.migrate_ms = (t1 - t0) / 1e6;
      pass.busy_ns += t1 - t0;
      if (!status.ok()) return finish(status);
    }
    const Call& call = schedule[i];
    driver->Stage(call);
    size_t rejects = 0;
    const int64_t t0 = NowNs();
    int32_t span = -1;
    if (tracer != nullptr) {
      span = tracer->Open(CallSpanName(layer), t0, static_cast<uint32_t>(i));
      driver->set_tracer(tracer, static_cast<uint32_t>(i), span);
    }
    const sssj::Status call_status = driver->Submit(call, &rejects);
    const int64_t t1 = NowNs();
    if (tracer != nullptr) tracer->Close(span, t1);
    pass.call_ns.push_back(t1 - t0);
    pass.call_total_ns += t1 - t0;
    pass.items += call.count;
    pass.failed_items += call_status.ok() ? rejects : call.count;
  }
  pass.busy_ns += pass.call_total_ns;

  auto bytes = driver->StateBytes();
  if (!bytes.ok()) return finish(bytes.status());
  pass.state_bytes = *bytes;
  const int64_t close_start = NowNs();
  status = driver->Close();
  const int64_t close_end = NowNs();
  pass.close_ms = (close_end - close_start) / 1e6;
  pass.busy_ns += close_end - close_start;
  pass.has_stats = driver->HasRunStats();
  if (pass.has_stats) pass.stats = driver->Stats();
  return finish(status);
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Percentile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0;
  const size_t k = std::min(v.size() - 1, static_cast<size_t>(q * v.size()));
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return static_cast<double>(v[k]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int k = 0; k < 3; ++k) {
      __get_cpuid(0x80000002 + k, &regs[4 * k], &regs[4 * k + 1],
                  &regs[4 * k + 2], &regs[4 * k + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out_dir = ".bench_build/layerbench/out";
  Fault fault = Fault::kNone;
};

// Everything one run reports besides its metrics.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;  // name -> JSON
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::string hard_error;  // a layer call that failed outright
};

void Note(Report* report, const std::string& key, double v) {
  report->info.emplace_back(key, JsonNumber(v));
}

void NoteError(Report* report, const Pass& pass, Layer layer) {
  if (!pass.status.ok() && report->hard_error.empty()) {
    report->hard_error =
        std::string(LayerName(layer)) + ": " + pass.status.ToString();
  }
}

// Counts |pass Δ reference| over every session.
uint64_t CompareToReference(const Pass& pass, const Pass& reference) {
  uint64_t diff = 0;
  for (size_t s = 0; s < pass.pairs.size(); ++s) {
    diff += SymmetricDifference(pass.pairs[s], reference.pairs[s]);
  }
  return diff;
}

// The bare JoinCore replay of the full stream, checked against the oracle.
Pass ReferencePass(const WorkloadSpec& spec, const Input& input,
                   const std::vector<Call>& item_schedule, Report* report) {
  Pass reference = RunPass(Layer::kStream, input, item_schedule, false,
                           nullptr, Fault::kNone);
  NoteError(report, reference, Layer::kStream);
  std::vector<Oracle> oracles;
  for (const sssj::Stream& stream : input.streams) {
    oracles.push_back(
        BuildOracle(stream, spec.oracle_prefix, spec.theta, spec.lambda));
  }
  uint64_t mismatches = 0;
  for (size_t s = 0; s < input.sessions.size(); ++s) {
    mismatches +=
        OracleMismatches(oracles[input.stream_of[s]], reference.pairs[s]);
  }
  report->mismatches += mismatches;
  Note(report, "oracle_mismatches", static_cast<double>(mismatches));
  Note(report, "oracle_items", static_cast<double>(oracles[0].n));
  for (size_t s = 0; s < input.sessions.size(); ++s) {
    char key[96];
    std::snprintf(key, sizeof(key), "digest.%s", input.sessions[s].name.c_str());
    char hex[32];
    std::snprintf(hex, sizeof(hex), "\"%016llx\"",
                  static_cast<unsigned long long>(Digest(reference.pairs[s])));
    report->info.emplace_back(key, hex);
    Note(report, std::string("pairs.") + input.sessions[s].name,
         static_cast<double>(reference.pairs[s].size()));
  }
  return reference;
}

double PeakRssMb(bool with_children) {
  struct rusage self {};
  getrusage(RUSAGE_SELF, &self);
  double kb = static_cast<double>(self.ru_maxrss);
  if (with_children) {
    struct rusage children {};
    getrusage(RUSAGE_CHILDREN, &children);
    kb += static_cast<double>(children.ru_maxrss);
  }
  return kb / 1024.0;
}

// Setup is timed over this many open/close cycles after each pass, on top
// of the passes' own, so its median samples the whole run.
constexpr int kSetupCyclesPerPass = 10;

// True when another round lasting as long as the last one would end past
// the deadline, so a run takes about --seconds whatever a pass costs.
bool OutOfTime(int64_t round_start_ns, int64_t deadline_ns) {
  const int64_t now = NowNs();
  return now + (now - round_start_ns) > deadline_ns;
}

// Each pass replays the whole stream; the reported figures are medians
// over the run's passes, so a pass slowed by a neighbour on the machine
// does not move them.
void RunTimed(const WorkloadSpec& spec, const Input& input,
              const Options& options, Report* report) {
  const std::vector<Call> schedule = MakeSchedule(input, false);
  const std::vector<Call> item_schedule = MakeSchedule(input, true);
  const Pass reference = ReferencePass(spec, input, item_schedule, report);

  std::vector<double> setups;
  const std::vector<Call> no_calls;
  const bool migrate = spec.top == Layer::kFleet;
  std::vector<double> throughputs;
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::vector<double> states;
  uint64_t calls = 0;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  for (;;) {
    const int64_t pass_start = NowNs();
    const Pass pass = RunPass(spec.top, input, schedule, migrate, nullptr,
                              options.fault);
    NoteError(report, pass, spec.top);
    setups.push_back(pass.setup_s);
    const double accepted =
        static_cast<double>(pass.items - pass.failed_items);
    throughputs.push_back(pass.busy_ns > 0 ? accepted / (pass.busy_ns / 1e9)
                                           : 0);
    p50s.push_back(Percentile(pass.call_ns, 0.50) / 1e3);
    p99s.push_back(Percentile(pass.call_ns, 0.99) / 1e3);
    states.push_back(pass.state_bytes / (1024.0 * 1024.0));
    calls += pass.call_ns.size();
    report->attempted += pass.items;
    report->failed += pass.failed_items;
    report->mismatches += CompareToReference(pass, reference);
    for (int k = 0; k < kSetupCyclesPerPass; ++k) {
      const Pass cycle =
          RunPass(spec.top, input, no_calls, false, nullptr, Fault::kNone);
      NoteError(report, cycle, spec.top);
      setups.push_back(cycle.setup_s);
    }
    if (OutOfTime(pass_start, deadline)) break;
  }

  report->metrics = {
      {"throughput_ips", Median(throughputs), "1/s"},
      {"call_p50_us", Median(p50s), "us"},
      {"call_p99_us", Median(p99s), "us"},
      {"setup_s", Median(setups), "s"},
      {"peak_rss_mb", PeakRssMb(spec.top == Layer::kFleet), "MB"},
      {"state_mb", Median(states), "MB"},
  };
  Note(report, "passes", static_cast<double>(throughputs.size()));
  std::string per_pass = "[";
  for (size_t i = 0; i < throughputs.size(); ++i) {
    per_pass += (i > 0 ? ", " : "") + JsonNumber(throughputs[i]);
  }
  report->info.emplace_back("pass_throughput_ips", per_pass + "]");
  Note(report, "calls_per_pass", static_cast<double>(schedule.size()));
  Note(report, "call_samples", static_cast<double>(calls));
  Note(report, "setup_samples", static_cast<double>(setups.size()));
}

// Sums of one layer's figures over the traced rounds.
struct LayerTotals {
  bool ran = false;
  int64_t call_ns = 0;
  uint64_t items = 0;
  uint64_t calls = 0;
  double close_ms = 0;
  double create_ms = 0;
  double flush_ms = 0;
  double start_ms = 0;
  double migrate_ms = 0;
  WireSplit split;
  uint64_t restarts = 0;
  std::vector<int64_t> call_samples;  // kept for the stream layer's p99

  double per_item(int64_t ns) const {
    return items > 0 ? static_cast<double>(ns) / items : 0;
  }
  void Add(const Pass& pass) {
    ran = true;
    call_ns += pass.call_total_ns;
    items += pass.items;
    calls += pass.call_ns.size();
    close_ms += pass.close_ms;
    create_ms += pass.create_ms;
    flush_ms += pass.flush_ms;
    start_ms += pass.start_ms;
    migrate_ms += pass.migrate_ms;
    restarts += pass.restarts;
    split.encode_request_ns += pass.split.encode_request_ns;
    split.handle_ns += pass.split.handle_ns;
    split.encode_reply_ns += pass.split.encode_reply_ns;
    split.decode_reply_ns += pass.split.decode_reply_ns;
    split.decode_request_ns += pass.split.decode_request_ns;
    split.bytes += pass.split.bytes;
  }
  // Per-call means of the wire split.
  double handle() const { return split.handle_ns / std::max<double>(1, calls); }
  double codec_outside_handle() const {
    return (split.encode_request_ns + split.encode_reply_ns +
            split.decode_reply_ns) /
           std::max<double>(1, calls);
  }
};

bool SameCounters(const sssj::RunStats& a, const sssj::RunStats& b) {
  return a.entries_traversed == b.entries_traversed &&
         a.candidates_generated == b.candidates_generated &&
         a.l2_prunes == b.l2_prunes && a.verify_calls == b.verify_calls &&
         a.full_dots == b.full_dots && a.pairs_emitted == b.pairs_emitted &&
         a.vectors_processed == b.vectors_processed &&
         a.entries_indexed == b.entries_indexed &&
         a.entries_pruned == b.entries_pruned &&
         a.reindexed_coords == b.reindexed_coords &&
         a.index_rebuilds == b.index_rebuilds &&
         a.peak_index_entries == b.peak_index_entries;
}

void RunTraced(const WorkloadSpec& spec, const Input& input,
               const Options& options, Report* report, Tracer* tracer) {
  const std::vector<Call> schedule = MakeSchedule(input, false);
  const std::vector<Call> item_schedule = MakeSchedule(input, true);
  const int top = static_cast<int>(spec.top);

  LayerTotals totals[kNumLayers];
  LayerTotals wire_migrating;
  sssj::RunStats counters;
  uint64_t counter_mismatches = 0;
  int64_t traced_top_ns = 0;
  int64_t untraced_top_ns = 0;
  int rounds = 0;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  for (;;) {
    const int64_t round_start = NowNs();
    Pass reference;
    for (int l = 0; l <= top; ++l) {
      const Layer layer = static_cast<Layer>(l);
      const bool bottom = layer == Layer::kStream;
      Pass pass;
      if (bottom && rounds == 0) {
        // Replayed untraced first as the oracle-checked reference, so the
        // traced replay below is timed on warm caches like every other.
        ReferencePass(spec, input, item_schedule, report);
      }
      pass = RunPass(layer, input, bottom ? item_schedule : schedule,
                     layer == Layer::kFleet, tracer,
                     l == top ? options.fault : Fault::kNone);
      NoteError(report, pass, layer);
      if (bottom) reference = pass;
      report->mismatches += CompareToReference(pass, reference);
      if (pass.has_stats) {
        if (rounds == 0 && bottom) counters = pass.stats;
        if (!SameCounters(pass.stats, counters)) ++counter_mismatches;
      }
      LayerTotals& t = totals[l];
      t.Add(pass);
      if (bottom) {
        t.call_samples.insert(t.call_samples.end(), pass.call_ns.begin(),
                              pass.call_ns.end());
      }
      if (layer == Layer::kWire && spec.top == Layer::kFleet) {
        // The fleet migrates every session at mid-stream, and a restored
        // session's index differs from a long-lived one's; fleet.self_ns
        // subtracts a wire replay that does the same MigrateOut + Restore.
        const Pass migrating =
            RunPass(layer, input, schedule, true, nullptr, Fault::kNone);
        NoteError(report, migrating, layer);
        report->mismatches += CompareToReference(migrating, reference);
        wire_migrating.Add(migrating);
      }
      if (l == top) {
        traced_top_ns += pass.call_total_ns;
        report->attempted += pass.items;
        report->failed += pass.failed_items;
      }
    }
    const Pass untraced =
        RunPass(spec.top, input, schedule, spec.top == Layer::kFleet, nullptr,
                options.fault);
    NoteError(report, untraced, spec.top);
    report->mismatches += CompareToReference(untraced, reference);
    untraced_top_ns += untraced.call_total_ns;
    ++rounds;
    if (OutOfTime(round_start, deadline)) break;
  }
  report->mismatches += counter_mismatches;

  const double n_sessions = static_cast<double>(input.sessions.size());
  const LayerTotals& stream = totals[0];
  const LayerTotals& engine = totals[1];
  const LayerTotals& service = totals[2];
  const LayerTotals& client = totals[3];
  const LayerTotals& wire = totals[4];
  const LayerTotals& fleet = totals[5];
  auto ns = [](const LayerTotals& t) { return t.per_item(t.call_ns); };
  auto on = [](const LayerTotals& t, double v) { return t.ran ? v : 0.0; };
  const double r = rounds;
  const double cands = static_cast<double>(counters.candidates_generated);
  const double wire_calls = std::max<double>(1, wire.calls);

  auto count = [](uint64_t v) { return static_cast<double>(v); };
  report->metrics = {
      {"index.entries_traversed", count(counters.entries_traversed), "count"},
      {"index.candidates", count(counters.candidates_generated), "count"},
      {"index.l2_prunes", count(counters.l2_prunes), "count"},
      {"index.full_dots", count(counters.full_dots), "count"},
      {"index.pairs", count(counters.pairs_emitted), "count"},
      {"index.pairs_per_candidate",
       cands > 0 ? count(counters.pairs_emitted) / cands : 0, "ratio"},
      {"index.entries_per_item",
       count(counters.entries_traversed) /
           std::max<double>(1, count(counters.vectors_processed)),
       "count"},
      {"index.entries_indexed", count(counters.entries_indexed), "count"},
      {"index.entries_pruned", count(counters.entries_pruned), "count"},
      {"index.reindexed_coords", count(counters.reindexed_coords), "count"},
      {"index.peak_entries", count(counters.peak_index_entries), "count"},
      {"index.window_rebuilds", count(counters.index_rebuilds), "count"},
      {"stream.push_ns", ns(stream), "ns"},
      {"stream.flush_ms", stream.flush_ms / r, "ms"},
      {"stream.push_p99_ns", Percentile(stream.call_samples, 0.99), "ns"},
      {"engine.push_ns", on(engine, ns(engine)), "ns"},
      {"engine.self_ns", on(engine, ns(engine) - ns(stream)), "ns"},
      {"service.push_ns", on(service, ns(service)), "ns"},
      {"service.self_ns", on(service, ns(service) - ns(engine)), "ns"},
      {"service.create_ms", service.create_ms / r / n_sessions, "ms"},
      {"service.close_ms", service.close_ms / r / n_sessions, "ms"},
      {"client.push_ns", on(client, ns(client)), "ns"},
      {"client.self_ns", on(client, ns(client) - ns(service)), "ns"},
      {"wire.encode_ns",
       (wire.split.encode_request_ns + wire.split.encode_reply_ns) / wire_calls,
       "ns"},
      {"wire.decode_ns",
       (wire.split.decode_request_ns + wire.split.decode_reply_ns) / wire_calls,
       "ns"},
      {"wire.bytes_per_call", wire.split.bytes / wire_calls, "B"},
      {"worker.handle_ns", wire.handle(), "ns"},
      {"worker.self_ns",
       on(wire, wire.handle() - wire.split.decode_request_ns / wire_calls -
                    ns(service)),
       "ns"},
      {"fleet.push_ns", on(fleet, ns(fleet)), "ns"},
      {"fleet.self_ns",
       on(fleet, ns(fleet) - wire_migrating.handle() -
                     wire_migrating.codec_outside_handle()),
       "ns"},
      {"fleet.start_ms", fleet.start_ms / r, "ms"},
      {"fleet.migrate_ms", fleet.migrate_ms / r / n_sessions, "ms"},
      {"fleet.restarts", count(fleet.restarts), "count"},
      {"trace.overhead_pct",
       untraced_top_ns > 0
           ? 100.0 * (traced_top_ns - untraced_top_ns) / untraced_top_ns
           : 0,
       "%"},
  };
  Note(report, "rounds", rounds);
  Note(report, "counter_mismatches", static_cast<double>(counter_mismatches));
  Note(report, "stream_push_samples",
       static_cast<double>(stream.call_samples.size()));
  Note(report, "spans", static_cast<double>(tracer->spans().size()));
  std::string layers = "[";
  for (int l = 0; l <= top; ++l) {
    layers += std::string(l > 0 ? "," : "") + "\"" +
              LayerName(static_cast<Layer>(l)) + "\"";
  }
  report->info.emplace_back("layers", layers + "]");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (key == "--out-dir") {
      options->out_dir = value;
    } else if (key == "--fault") {
      if (value == "none") {
        options->fault = Fault::kNone;
      } else if (value == "drop") {
        options->fault = Fault::kDrop;
      } else if (value == "add") {
        options->fault = Fault::kAdd;
      } else {
        return false;
      }
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() && options->seconds > 0 &&
         options->trace >= 0;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: layer_ledger --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] "
                 "[--fault <none|drop|add>]\n");
    return 2;
  }
  const std::vector<WorkloadSpec> workloads = Workloads();
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : workloads) {
    if (options.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  // Forked fleet workers must not inherit buffered output.
  std::fflush(stdout);

  const Input input = MakeInput(*spec, options.seed);
  Report report;
  Tracer tracer;
  if (options.trace == 1) {
    RunTraced(*spec, input, options, &report, &tracer);
  } else {
    RunTimed(*spec, input, options, &report);
  }
  const bool correct = report.mismatches == 0 && report.hard_error.empty();
  const double error_rate =
      report.attempted > 0
          ? static_cast<double>(report.failed) / report.attempted
          : 1.0;

  // The environment and the checks, recorded with every result.
  std::vector<std::pair<std::string, std::string>> env = {
      {"workload", JsonString(spec->name)},
      {"mode", JsonString(options.trace == 1 ? "traced" : "timed")},
      {"seed", std::to_string(options.seed)},
      {"seconds", JsonNumber(options.seconds)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", JsonString(CpuModel())},
      {"build_type", JsonString(LEDGER_BUILD_TYPE)},
      {"simd_level", JsonString(sssj::ToString(sssj::DetectSimdLevel()))},
      {"kernel", JsonString(sssj::ToString(input.config.kernel))},
      {"num_threads", std::to_string(input.config.num_threads)},
      {"sessions", std::to_string(input.sessions.size())},
      {"items_per_session", std::to_string(input.stream(0).size())},
      {"batch_size", std::to_string(spec->batch_size)},
      {"error_rate", JsonNumber(error_rate)},
      {"pair_mismatches", std::to_string(report.mismatches)},
  };
  if (!report.hard_error.empty()) {
    env.emplace_back("error", JsonString(report.hard_error));
  }
  env.insert(env.end(), report.info.begin(), report.info.end());

  std::string record = "{";
  for (size_t i = 0; i < env.size(); ++i) {
    record += (i > 0 ? ", " : "") + JsonString(env[i].first) + ": " +
              env[i].second;
  }
  record += "}";
  std::string metrics = "{";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    metrics += (i > 0 ? ", " : "") + JsonString(m.name) +
               ": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  metrics += "}";
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(report.attempted) +
      ", \"failed\": " + std::to_string(report.failed) +
      ", \"metrics\": " + metrics + "}";

  const std::string stem = options.out_dir + "/" + spec->name +
                           (options.trace == 1 ? "-traced" : "-timed");
  if (options.trace == 1 && !tracer.WriteCsv(stem + "-spans.csv")) {
    std::fprintf(stderr, "cannot write %s-spans.csv\n", stem.c_str());
  }
  if (FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(f, "{\"env\": %s, \"result\": %s}\n", record.c_str(),
                 result.c_str());
    std::fclose(f);
  }

  std::printf("%s %s seed=%llu\n", spec->name,
              options.trace == 1 ? "traced" : "timed",
              static_cast<unsigned long long>(options.seed));
  for (const auto& kv : env) {
    std::printf("  %-26s %s\n", kv.first.c_str(), kv.second.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::printf("  %-26s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (options.trace == 0) {
    std::printf("  %-26s %.6g ratio\n", "error_rate", error_rate);
    std::printf("  %-26s %llu count\n", "pair_mismatches",
                static_cast<unsigned long long>(report.mismatches));
  }
  std::printf("%s\n", result.c_str());
  return correct && report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) { return ledger::Main(argc, argv); }
