#include "layers.h"

#include <cstdio>
#include <utility>

#include "cluster/supervisor.h"
#include "cluster/wire.h"
#include "cluster/worker.h"
#include "core/join_service.h"

namespace ledger {

using sssj::Status;
using sssj::StatusOr;
namespace cluster = sssj::cluster;

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kStream:
      return "stream";
    case Layer::kEngine:
      return "engine";
    case Layer::kService:
      return "service";
    case Layer::kClient:
      return "client";
    case Layer::kWire:
      return "wire";
    case Layer::kFleet:
      return "fleet";
  }
  return "?";
}

bool Tracer::WriteCsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "span,name,start_ns,end_ns,parent,request\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%s,%lld,%lld,%d,%u\n", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.request);
  }
  return std::fclose(f) == 0;
}

namespace {

double MsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

const sssj::Stream& CallBatch(const Input& input, const Call& call) {
  return input.batches[input.stream_of[call.session]]
                      [call.begin / input.batch_size];
}

void EmitAll(const std::vector<sssj::ResultPair>& pairs,
             sssj::ResultSink* sink) {
  for (const sssj::ResultPair& p : pairs) sink->Emit(p);
}

cluster::WireConfig ToWire(const Input& input, size_t s) {
  cluster::WireConfig wire = cluster::WireConfig::FromEngineConfig(input.config);
  wire.framework = input.sessions[s].framework;
  wire.index = input.sessions[s].scheme;
  return wire;
}

sssj::EngineConfig SessionConfig(const Input& input, size_t s) {
  sssj::EngineConfig config = input.config;
  config.framework = input.sessions[s].framework;
  config.index = input.sessions[s].scheme;
  return config;
}

// ---- stream: JoinCore::Push ----
class StreamDriver : public LayerDriver {
 public:
  using LayerDriver::LayerDriver;

  Status Open() override {
    sssj::DecayParams params;
    if (!sssj::DecayParams::Make(input_.config.theta, input_.config.lambda,
                                 &params)) {
      return Status::InvalidArgument("bad theta/lambda");
    }
    for (size_t s = 0; s < input_.sessions.size(); ++s) {
      const sssj::EngineConfig config = SessionConfig(input_, s);
      auto core = sssj::MakeJoinCore(config, config.framework, config.index,
                                     params);
      if (!core.ok()) return core.status();
      cores_.push_back(std::move(*core));
    }
    return Status::Ok();
  }

  Status Submit(const Call& call, size_t* rejects) override {
    if (call.count != 1) {
      return Status::Unimplemented("JoinCore::Push takes one item");
    }
    if (!cores_[call.session]->Push(staged_, sinks_[call.session])) {
      ++*rejects;
    }
    return Status::Ok();
  }

  StatusOr<uint64_t> StateBytes() override {
    uint64_t bytes = 0;
    for (const auto& core : cores_) bytes += core->MemoryBytes();
    return bytes;
  }

  Status Close() override {
    const int64_t start = NowNs();
    for (size_t s = 0; s < cores_.size(); ++s) cores_[s]->Flush(sinks_[s]);
    flush_ms_ = MsSince(start);
    return Status::Ok();
  }

  bool HasRunStats() const override { return true; }
  sssj::RunStats Stats() const override {
    sssj::RunStats total;
    for (const auto& core : cores_) total += core->stats();
    return total;
  }

 private:
  std::vector<std::unique_ptr<sssj::JoinCore>> cores_;
};

// ---- engine: SssjEngine::Push / PushBatch ----
class EngineDriver : public LayerDriver {
 public:
  using LayerDriver::LayerDriver;

  Status Open() override {
    for (size_t s = 0; s < input_.sessions.size(); ++s) {
      auto engine = sssj::SssjEngine::Make(SessionConfig(input_, s), sinks_[s]);
      if (!engine.ok()) return engine.status();
      engines_.push_back(std::move(*engine));
    }
    return Status::Ok();
  }

  Status Submit(const Call& call, size_t* rejects) override {
    sssj::SssjEngine& engine = *engines_[call.session];
    if (call.count == 1) {
      return engine.Push(staged_.ts, std::move(staged_.vec));
    }
    const sssj::BatchPushResult result =
        engine.PushBatch(CallBatch(input_, call));
    *rejects += result.rejects.size();
    return Status::Ok();
  }

  StatusOr<uint64_t> StateBytes() override {
    uint64_t bytes = 0;
    for (const auto& engine : engines_) bytes += engine->MemoryBytes();
    return bytes;
  }

  Status Close() override {
    for (const auto& engine : engines_) engine->Flush();
    return Status::Ok();
  }

  bool HasRunStats() const override { return true; }
  sssj::RunStats Stats() const override {
    sssj::RunStats total;
    for (const auto& engine : engines_) total += engine->stats();
    return total;
  }

 private:
  std::vector<std::unique_ptr<sssj::SssjEngine>> engines_;
};

// ---- service: JoinService::Push / PushBatch ----
class ServiceDriver : public LayerDriver {
 public:
  using LayerDriver::LayerDriver;

  Status Open() override {
    service_ = std::make_unique<sssj::JoinService>();
    const int64_t start = NowNs();
    for (size_t s = 0; s < input_.sessions.size(); ++s) {
      auto handle = service_->CreateSession(sssj::JoinService::SessionOptions(
          input_.sessions[s].name, SessionConfig(input_, s), sinks_[s]));
      if (!handle.ok()) return handle.status();
      handles_.push_back(*handle);
    }
    create_ms_ = MsSince(start);
    return Status::Ok();
  }

  Status Submit(const Call& call, size_t* rejects) override {
    const auto handle = handles_[call.session];
    if (call.count == 1) {
      return service_->Push(handle, staged_.ts, std::move(staged_.vec));
    }
    auto result = service_->PushBatch(handle, CallBatch(input_, call));
    if (!result.ok()) return result.status();
    *rejects += result->rejects.size();
    return Status::Ok();
  }

  StatusOr<uint64_t> StateBytes() override {
    return service_->Stats().memory_bytes;
  }

  // Flush, then read the counters (the sessions are gone after
  // CloseSession), then close.
  Status Close() override {
    stats_ = sssj::RunStats();
    for (const auto handle : handles_) {
      Status status = service_->Flush(handle);
      if (!status.ok()) return status;
      auto stats = service_->SessionStats(handle);
      if (!stats.ok()) return stats.status();
      stats_ += *stats;
      status = service_->CloseSession(handle);
      if (!status.ok()) return status;
    }
    return Status::Ok();
  }

  bool HasRunStats() const override { return true; }
  sssj::RunStats Stats() const override { return stats_; }

 private:
  std::unique_ptr<sssj::JoinService> service_;
  std::vector<sssj::JoinService::SessionHandle> handles_;
  sssj::RunStats stats_;
};

// ---- client (in-process) and fleet: ClusterClient::Push ----
class ClientDriver : public LayerDriver {
 public:
  ClientDriver(const Input& input, const std::vector<sssj::ResultSink*>& sinks,
               bool fleet)
      : LayerDriver(input, sinks), fleet_(fleet) {}

  Status Open() override {
    if (fleet_) {
      cluster::SupervisorOptions options;
      options.num_workers = 2;
      supervisor_ = std::make_unique<cluster::Supervisor>(options);
      const int64_t start = NowNs();
      Status status = supervisor_->Start();
      start_ms_ = MsSince(start);
      if (!status.ok()) return status;
      client_ = std::make_unique<cluster::ClusterClient>(supervisor_.get());
    } else {
      client_ = std::make_unique<cluster::ClusterClient>(
          sssj::JoinServiceOptions{});
    }
    const int64_t start = NowNs();
    for (size_t s = 0; s < input_.sessions.size(); ++s) {
      Status status =
          client_->CreateSession(input_.sessions[s].name, ToWire(input_, s));
      if (!status.ok()) return status;
    }
    create_ms_ = MsSince(start);
    return Status::Ok();
  }

  Status Submit(const Call& call, size_t* rejects) override {
    const std::string& name = input_.sessions[call.session].name;
    pairs_.clear();
    Status status;
    if (call.count == 1) {
      status = client_->Push(name, staged_.ts, std::move(staged_.vec), &pairs_);
    } else {
      auto result = client_->PushBatch(name, CallBatch(input_, call), &pairs_);
      status = result.status();
      if (result.ok()) *rejects += result->rejects.size();
    }
    EmitAll(pairs_, sinks_[call.session]);
    return status;
  }

  StatusOr<uint64_t> StateBytes() override {
    uint64_t bytes = 0;
    for (const SessionSpec& session : input_.sessions) {
      auto stats = client_->SessionStats(session.name);
      if (!stats.ok()) return stats.status();
      bytes += stats->memory_bytes;
    }
    return bytes;
  }

  Status Close() override {
    for (size_t s = 0; s < input_.sessions.size(); ++s) {
      pairs_.clear();
      Status status = client_->CloseSession(input_.sessions[s].name, &pairs_);
      if (!status.ok()) return status;
      EmitAll(pairs_, sinks_[s]);
    }
    return Status::Ok();
  }

  Status MigrateAll() override {
    if (!fleet_) return LayerDriver::MigrateAll();
    for (const SessionSpec& session : input_.sessions) {
      auto owner = supervisor_->OwnerOf(session.name);
      if (!owner.ok()) return owner.status();
      Status status = supervisor_->Migrate(
          session.name, (*owner + 1) % supervisor_->num_workers());
      if (!status.ok()) return status;
    }
    return Status::Ok();
  }

  uint64_t restarts() const override {
    return supervisor_ != nullptr ? supervisor_->restarts() : 0;
  }

 private:
  const bool fleet_;
  // Declared before client_, which borrows it; destroying it shuts the
  // fleet down and reaps the workers.
  std::unique_ptr<cluster::Supervisor> supervisor_;
  std::unique_ptr<cluster::ClusterClient> client_;
  std::vector<sssj::ResultPair> pairs_;
};

// ---- wire: EncodePush + Worker::Handle + EncodeReply + DecodeReply ----
//
// The worker's request loop without the socket: exactly the codec and
// dispatch work one fleet call does, minus the channel and the
// supervisor's journal. Item-by-item only (the one workload that reaches
// this layer pushes per item).
class WireDriver : public LayerDriver {
 public:
  using LayerDriver::LayerDriver;

  Status Open() override {
    worker_ = std::make_unique<cluster::Worker>();
    Reply hello = Roundtrip(cluster::FrameType::kHello,
                       cluster::EncodeHello(cluster::HelloPayload{}));
    if (!hello.status.ok()) return hello.status;
    const int64_t start = NowNs();
    for (size_t s = 0; s < input_.sessions.size(); ++s) {
      cluster::CreateSessionRequest req;
      req.name = input_.sessions[s].name;
      req.config = ToWire(input_, s);
      Reply reply = Roundtrip(cluster::FrameType::kCreateSession,
                         cluster::EncodeCreateSession(req));
      if (!reply.status.ok()) return reply.status;
    }
    create_ms_ = MsSince(start);
    return Status::Ok();
  }

  Status Submit(const Call& call, size_t* rejects) override {
    if (call.count != 1) {
      return Status::Unimplemented("the wire layer replays per-item pushes");
    }
    (void)rejects;
    cluster::PushRequest req;
    req.name = input_.sessions[call.session].name;
    req.ts = staged_.ts;
    req.vec = std::move(staged_.vec);

    const int64_t t0 = NowNs();
    const std::string payload = cluster::EncodePush(req);
    const int64_t t1 = NowNs();
    bool shutdown = false;
    const cluster::Reply reply =
        worker_->Handle(cluster::FrameType::kPush, payload, &shutdown);
    const int64_t t2 = NowNs();
    const std::string reply_bytes = cluster::EncodeReply(reply);
    const int64_t t3 = NowNs();
    cluster::Reply decoded;
    Status status = cluster::DecodeReply(reply_bytes, &decoded);
    const int64_t t4 = NowNs();
    // The worker decodes the request inside Handle; re-decoding the same
    // bytes times that share so worker.self_ns can exclude it.
    cluster::PushRequest probe;
    (void)cluster::DecodePush(payload, &probe);
    const int64_t t5 = NowNs();

    split_.encode_request_ns += t1 - t0;
    split_.handle_ns += t2 - t1;
    split_.encode_reply_ns += t3 - t2;
    split_.decode_reply_ns += t4 - t3;
    split_.decode_request_ns += t5 - t4;
    split_.bytes += payload.size() + reply_bytes.size() +
                    2 * cluster::kFrameHeaderSize;
    if (tracer_ != nullptr) {
      tracer_->Record("wire.encode_request", t0, t1, parent_, request_);
      tracer_->Record("worker.handle", t1, t2, parent_, request_);
      tracer_->Record("wire.encode_reply", t2, t3, parent_, request_);
      tracer_->Record("wire.decode_reply", t3, t4, parent_, request_);
      tracer_->Record("wire.decode_request", t4, t5, parent_, request_);
    }
    if (!status.ok()) return status;
    EmitAll(decoded.pairs, sinks_[call.session]);
    return decoded.status;
  }

  StatusOr<uint64_t> StateBytes() override {
    uint64_t bytes = 0;
    for (const SessionSpec& session : input_.sessions) {
      Reply reply = Roundtrip(cluster::FrameType::kStats, NameOf(session));
      if (!reply.status.ok()) return reply.status;
      cluster::SessionWireStats stats;
      Status status = cluster::DecodeSessionStats(reply.blob, &stats);
      if (!status.ok()) return status;
      bytes += stats.memory_bytes;
    }
    return bytes;
  }

  Status MigrateAll() override {
    for (size_t s = 0; s < input_.sessions.size(); ++s) {
      Reply out = Roundtrip(cluster::FrameType::kMigrateOut,
                            NameOf(input_.sessions[s]));
      if (!out.status.ok()) return out.status;
      cluster::RestoreRequest req;
      req.name = input_.sessions[s].name;
      req.config = ToWire(input_, s);
      req.checkpoint = std::move(out.blob);
      Reply in = Roundtrip(cluster::FrameType::kRestore,
                           cluster::EncodeRestore(req));
      if (!in.status.ok()) return in.status;
    }
    return Status::Ok();
  }

  Status Close() override {
    for (size_t s = 0; s < input_.sessions.size(); ++s) {
      Reply reply =
          Roundtrip(cluster::FrameType::kCloseSession, NameOf(input_.sessions[s]));
      if (!reply.status.ok()) return reply.status;
      EmitAll(reply.pairs, sinks_[s]);
    }
    return Status::Ok();
  }

 private:
  using Reply = cluster::Reply;

  static std::string NameOf(const SessionSpec& session) {
    cluster::NameRequest req;
    req.name = session.name;
    return cluster::EncodeName(req);
  }

  // A full codec round trip for the control frames.
  Reply Roundtrip(cluster::FrameType type, const std::string& payload) {
    bool shutdown = false;
    const std::string bytes =
        cluster::EncodeReply(worker_->Handle(type, payload, &shutdown));
    Reply reply;
    Status status = cluster::DecodeReply(bytes, &reply);
    if (!status.ok()) reply.status = status;
    return reply;
  }

  std::unique_ptr<cluster::Worker> worker_;
};

}  // namespace

std::unique_ptr<LayerDriver> MakeDriver(
    Layer layer, const Input& input,
    const std::vector<sssj::ResultSink*>& sinks) {
  switch (layer) {
    case Layer::kStream:
      return std::make_unique<StreamDriver>(input, sinks);
    case Layer::kEngine:
      return std::make_unique<EngineDriver>(input, sinks);
    case Layer::kService:
      return std::make_unique<ServiceDriver>(input, sinks);
    case Layer::kClient:
      return std::make_unique<ClientDriver>(input, sinks, /*fleet=*/false);
    case Layer::kWire:
      return std::make_unique<WireDriver>(input, sinks);
    case Layer::kFleet:
      return std::make_unique<ClientDriver>(input, sinks, /*fleet=*/true);
  }
  return nullptr;
}

}  // namespace ledger
