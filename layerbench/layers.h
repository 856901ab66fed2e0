// Layer drivers for the layer-ledger benchmark.
//
// Each driver wraps ONE public entry point of the sssj stack, bottom up:
//   stream   JoinCore::Push              (MakeJoinCore)
//   engine   SssjEngine::Push/PushBatch
//   service  JoinService::Push/PushBatch
//   client   ClusterClient::Push         (in-process backend)
//   wire     EncodePush + Worker::Handle + EncodeReply + DecodeReply
//   fleet    ClusterClient::Push over a Supervisor with forked workers
// and replays the same closed-loop call schedule through it, so a layer's
// cost is measured from outside the program as the difference between
// its per-call time and the per-call time of the layer below. Every
// driver hands the pairs a call produced to that session's ResultSink, so
// the output of every layer can be compared with every other.
#ifndef LAYERBENCH_LAYERS_H_
#define LAYERBENCH_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/result.h"
#include "core/stats.h"
#include "core/status.h"
#include "core/stream_item.h"

namespace ledger {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer { kStream, kEngine, kService, kClient, kWire, kFleet };
inline constexpr int kNumLayers = 6;
const char* LayerName(Layer layer);

// One span per call at a layer boundary. `request` is the call's position
// in the workload's schedule, shared by the spans of that call in every
// layer's replay; `parent` indexes the enclosing span (-1 for none).
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  uint32_t request;
};

// In-memory span log; written out once, when the benchmark ends.
class Tracer {
 public:
  int32_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                 int32_t parent, uint32_t request) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  // Reserves a parent slot whose end is filled in by Close().
  int32_t Open(const char* name, int64_t start_ns, uint32_t request) {
    return Record(name, start_ns, start_ns, -1, request);
  }
  void Close(int32_t span, int64_t end_ns) { spans_[span].end_ns = end_ns; }
  const std::vector<Span>& spans() const { return spans_; }
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

struct SessionSpec {
  std::string name;
  sssj::Framework framework;
  sssj::IndexScheme scheme;
};

// The items every session sees, pre-cut into the workload's batches.
struct Input {
  std::vector<SessionSpec> sessions;
  // streams[stream_of[s]] is session s's stream; sessions may share one.
  std::vector<sssj::Stream> streams;
  std::vector<size_t> stream_of;
  // batches[stream][k] = items [k*batch_size, (k+1)*batch_size) of that
  // stream; empty when the workload pushes item by item.
  size_t batch_size = 1;
  std::vector<std::vector<sssj::Stream>> batches;
  sssj::EngineConfig config;  // shared by every session, every layer

  const sssj::Stream& stream(size_t session) const {
    return streams[stream_of[session]];
  }
};

// One client submission: `count` consecutive items of `session` from
// `begin` (count > 1 only as a PushBatch of exactly one pre-cut batch).
struct Call {
  uint32_t session;
  uint32_t begin;
  uint32_t count;
};

// Aggregated per-call figures a driver measures inside its own calls
// (the wire layer's codec split); zero elsewhere.
struct WireSplit {
  int64_t encode_request_ns = 0;
  int64_t handle_ns = 0;
  int64_t encode_reply_ns = 0;
  int64_t decode_reply_ns = 0;
  int64_t decode_request_ns = 0;  // DecodePush re-run on the same bytes
  uint64_t bytes = 0;             // request + reply frames, headers included
};

class LayerDriver {
 public:
  // `sinks` (one per session) and `input` are borrowed and outlive the
  // driver.
  LayerDriver(const Input& input, const std::vector<sssj::ResultSink*>& sinks)
      : input_(input), sinks_(sinks) {}
  virtual ~LayerDriver() = default;
  LayerDriver(const LayerDriver&) = delete;
  LayerDriver& operator=(const LayerDriver&) = delete;
  // Builds the layer and opens every session.
  virtual sssj::Status Open() = 0;
  // Copies a per-item call's vector out of the stored stream, as a client
  // builds its argument, before the caller starts the call's clock.
  void Stage(const Call& call) {
    if (call.count == 1) staged_ = input_.stream(call.session)[call.begin];
  }
  // One client call (after Stage). Pairs go to sinks[call.session];
  // per-item rejects are added to *rejects.
  virtual sssj::Status Submit(const Call& call, size_t* rejects) = 0;
  // Resident bytes of all sessions' state, read between the last call
  // and Close().
  virtual sssj::StatusOr<uint64_t> StateBytes() = 0;
  // Flushes and closes every session (MB windows drain into the sinks).
  virtual sssj::Status Close() = 0;
  // Summed index counters, for the layers that expose RunStats.
  virtual bool HasRunStats() const { return false; }
  virtual sssj::RunStats Stats() const { return {}; }
  // Moves every session out and back in through its checkpoint bytes:
  // to the other worker on the fleet, within the one worker on the wire
  // layer (the same MigrateOut + Restore frames).
  virtual sssj::Status MigrateAll() {
    return sssj::Status::Unimplemented("only the fleet and wire migrate");
  }
  // Crash-restarts so far (fleet only).
  virtual uint64_t restarts() const { return 0; }

  // Optional instrumentation, set by the traced replay.
  void set_tracer(Tracer* tracer, uint32_t request, int32_t parent) {
    tracer_ = tracer;
    request_ = request;
    parent_ = parent;
  }
  WireSplit wire_split() const { return split_; }
  // Sub-phase timings recorded by Open/Close (ms).
  double flush_ms() const { return flush_ms_; }
  double create_ms() const { return create_ms_; }
  double start_ms() const { return start_ms_; }

 protected:
  const Input& input_;
  const std::vector<sssj::ResultSink*>& sinks_;
  sssj::StreamItem staged_;
  Tracer* tracer_ = nullptr;
  uint32_t request_ = 0;
  int32_t parent_ = -1;
  WireSplit split_;
  double flush_ms_ = 0;
  double create_ms_ = 0;
  double start_ms_ = 0;
};

std::unique_ptr<LayerDriver> MakeDriver(
    Layer layer, const Input& input,
    const std::vector<sssj::ResultSink*>& sinks);

}  // namespace ledger

#endif  // LAYERBENCH_LAYERS_H_
