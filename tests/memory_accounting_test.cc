// Incremental memory accounting: every index, join core and engine keeps
// MemoryBytes() as running totals (PostingMap, ResidualStore, the MB
// window counters) so the service can read it after every push. These
// randomized-op tests drive each configuration through pushes with bursty
// gaps (forcing expiry), freezes, compaction, Clear, checkpoint reloads
// (native SSSJENG2 and portable SSSJENG3) and live scheme switches, and
// after every single op require the O(1) figure to equal the full walk
// (MemoryBytesSlow) exactly. A budgeted JoinService run is replayed
// against a model that makes its eviction decisions from the walk, so the
// service's eviction order and byte reports must agree with the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/decay.h"
#include "core/engine.h"
#include "core/join_service.h"
#include "index/decayed_stream_index.h"
#include "index/sharded_stream_index.h"
#include "index/stream_inv_index.h"
#include "index/stream_l2_index.h"
#include "index/stream_l2ap_index.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace sssj {
namespace {

using ::sssj::testing::UnitVec;

constexpr double kTheta = 0.6;
constexpr double kLambda = 0.05;  // horizon tau ~= 10.2 time units
constexpr uint64_t kSeeds[] = {1, 2, 3, 5, 8, 13};

// Small blocks and tails so lists freeze, amend, expire whole blocks and
// compact straddling blocks within a few hundred arrivals.
TieredStorageOptions SmallTiers() {
  TieredStorageOptions t;
  t.enabled = true;
  t.block_entries = 8;
  t.hot_tail_entries = 16;
  t.dormant_tail_entries = 4;
  t.dormant_after_appends = 3;
  t.cold_freeze_quantum = 4;
  return t;
}

// Random unit vector over a small dimension space (long, shared lists).
SparseVector RandomVec(Rng* rng) {
  for (;;) {
    const size_t nnz = 1 + rng->NextBelow(7);
    std::vector<Coord> coords;
    for (size_t k = 0; k < nnz; ++k) {
      // Skewed dims: a few head dims collect long lists.
      const DimId dim = static_cast<DimId>(
          rng->NextBelow(4) == 0 ? rng->NextBelow(4) : rng->NextBelow(40));
      coords.push_back(Coord{dim, 0.05 + rng->NextDouble()});
    }
    SparseVector v = UnitVec(std::move(coords));
    if (!v.empty()) return v;
  }
}

// Bursty inter-arrival gap: mostly near-simultaneous arrivals, sometimes
// a medium gap, occasionally a silence longer than the horizon that
// expires everything indexed so far.
double BurstyGap(Rng* rng) {
  const uint64_t roll = rng->NextBelow(100);
  if (roll < 70) return rng->NextDouble() * 0.2;
  if (roll < 95) return rng->NextDouble() * 3.0;
  return 15.0 + rng->NextDouble() * 10.0;
}

// ---- index level: every StreamIndex, tiering off and on ----

enum class IndexKind {
  kInv, kL2, kL2ap, kSharded2, kSharded4, kDecayInv, kDecayL2, kWindowL2
};

DecayParams Params() {
  DecayParams params;
  EXPECT_TRUE(DecayParams::Make(kTheta, kLambda, &params));
  return params;
}

std::unique_ptr<StreamIndex> MakeIndex(IndexKind kind, bool tiered) {
  const DecayParams params = Params();
  const TieredStorageOptions t = tiered ? SmallTiers() : TieredStorageOptions{};
  switch (kind) {
    case IndexKind::kInv:
      return std::make_unique<StreamInvIndex>(params, false, t);
    case IndexKind::kL2:
      return std::make_unique<StreamL2Index>(params, L2IndexOptions{}, false,
                                             t);
    case IndexKind::kL2ap:
      return std::make_unique<StreamL2apIndex>(params, 0.0, true, false, t);
    case IndexKind::kSharded2:
      return std::make_unique<ShardedStreamIndex>(params, 2,
                                                  L2IndexOptions{}, false, t);
    case IndexKind::kSharded4:
      return std::make_unique<ShardedStreamIndex>(params, 4,
                                                  L2IndexOptions{}, false, t);
    case IndexKind::kDecayInv:
      return std::make_unique<GeneralDecayInvIndex>(
          kTheta, DecayFunction::Polynomial(2.0), t);
    case IndexKind::kDecayL2:
      return std::make_unique<GeneralDecayL2Index>(
          kTheta, DecayFunction::Exponential(kLambda), t);
    case IndexKind::kWindowL2:
      return std::make_unique<GeneralDecayL2Index>(
          kTheta, DecayFunction::SlidingWindow(8.0), t);
  }
  return nullptr;
}

struct IndexCase {
  const char* name;
  IndexKind kind;
  bool tiered;
};

class IndexAccountingTest : public ::testing::TestWithParam<IndexCase> {};

TEST_P(IndexAccountingTest, RunningTotalEqualsWalkAfterEveryOp) {
  const IndexCase& param = GetParam();
  for (const uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 7919 + static_cast<uint64_t>(param.kind));
    std::unique_ptr<StreamIndex> index = MakeIndex(param.kind, param.tiered);
    CountingSink sink;
    Timestamp now = 0.0;
    VectorId next_id = 0;
    ASSERT_EQ(index->MemoryBytes(), index->MemoryBytesSlow());
    for (int op = 0; op < 400; ++op) {
      const uint64_t roll = rng.NextBelow(200);
      if (roll == 0) {
        index->Clear();
      } else if (roll == 1 && param.kind == IndexKind::kL2) {
        // Native index checkpoint round trip into a fresh index, which
        // then replaces the live one (the engine's LoadNative move).
        auto* l2 = static_cast<StreamL2Index*>(index.get());
        std::stringstream bytes;
        ASSERT_TRUE(l2->Serialize(bytes));
        StreamL2Index restored(Params(),
                               L2IndexOptions{}, false,
                               param.tiered ? SmallTiers()
                                            : TieredStorageOptions{});
        ASSERT_TRUE(restored.Deserialize(bytes));
        ASSERT_EQ(restored.MemoryBytes(), restored.MemoryBytesSlow())
            << "seed " << seed << " op " << op << " (deserialized)";
        *l2 = std::move(restored);
      } else {
        now += BurstyGap(&rng);
        StreamItem item;
        item.id = next_id++;
        item.ts = now;
        item.vec = RandomVec(&rng);
        index->ProcessArrival(item, &sink);
      }
      ASSERT_EQ(index->MemoryBytes(), index->MemoryBytesSlow())
          << "seed " << seed << " op " << op << " index " << param.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Indexes, IndexAccountingTest,
    ::testing::Values(IndexCase{"Inv", IndexKind::kInv, false},
                      IndexCase{"InvTiered", IndexKind::kInv, true},
                      IndexCase{"L2", IndexKind::kL2, false},
                      IndexCase{"L2Tiered", IndexKind::kL2, true},
                      IndexCase{"L2ap", IndexKind::kL2ap, false},
                      IndexCase{"L2apTiered", IndexKind::kL2ap, true},
                      IndexCase{"Sharded2", IndexKind::kSharded2, false},
                      IndexCase{"Sharded2Tiered", IndexKind::kSharded2, true},
                      IndexCase{"Sharded4", IndexKind::kSharded4, false},
                      IndexCase{"Sharded4Tiered", IndexKind::kSharded4, true},
                      IndexCase{"DecayInv", IndexKind::kDecayInv, false},
                      IndexCase{"DecayInvTiered", IndexKind::kDecayInv, true},
                      IndexCase{"DecayL2", IndexKind::kDecayL2, false},
                      IndexCase{"DecayL2Tiered", IndexKind::kDecayL2, true},
                      IndexCase{"WindowL2", IndexKind::kWindowL2, false},
                      IndexCase{"WindowL2Tiered", IndexKind::kWindowL2,
                                true}),
    [](const ::testing::TestParamInfo<IndexCase>& info) {
      return std::string(info.param.name);
    });

// ---- engine level: STR and MB cores, checkpoints, scheme switches ----

struct EngineCase {
  const char* name;
  Framework framework;
  IndexScheme scheme;
  int threads;
  bool tiered;
  bool migration;  // false: native SSSJENG2 checkpoints (STR-L2, 1 thread)
};

EngineConfig ConfigFor(const EngineCase& c) {
  EngineConfig cfg;
  cfg.framework = c.framework;
  cfg.index = c.scheme;
  cfg.theta = kTheta;
  cfg.lambda = kLambda;
  cfg.num_threads = c.threads;
  if (c.tiered) cfg.tiered = SmallTiers();
  cfg.adaptive.enable_migration = c.migration;
  return cfg;
}

struct SchemeTarget {
  Framework framework;
  IndexScheme scheme;
};
constexpr SchemeTarget kTargets[] = {
    {Framework::kStreaming, IndexScheme::kInv},
    {Framework::kStreaming, IndexScheme::kL2},
    {Framework::kStreaming, IndexScheme::kL2ap},
    {Framework::kMiniBatch, IndexScheme::kInv},
    {Framework::kMiniBatch, IndexScheme::kAp},
    {Framework::kMiniBatch, IndexScheme::kL2ap},
    {Framework::kMiniBatch, IndexScheme::kL2},
};

class EngineAccountingTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineAccountingTest, RunningTotalEqualsWalkAfterEveryOp) {
  const EngineCase& param = GetParam();
  const EngineConfig cfg = ConfigFor(param);
  for (const uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 104729 + 17);
    CountingSink sink;
    auto made = SssjEngine::Make(cfg, &sink);
    ASSERT_TRUE(made.ok()) << made.status().message();
    std::unique_ptr<SssjEngine> engine = *std::move(made);
    Timestamp now = 0.0;
    ASSERT_EQ(engine->MemoryBytes(), engine->MemoryBytesSlow());
    for (int op = 0; op < 300; ++op) {
      const uint64_t roll = rng.NextBelow(100);
      std::string what = "push";
      if (roll < 3) {
        what = "flush";
        engine->Flush();
      } else if (roll < 6) {
        // Checkpoint into a fresh engine of the same config, which takes
        // over: native SSSJENG2 or portable SSSJENG3 by configuration.
        what = "reload";
        std::stringstream bytes;
        ASSERT_TRUE(engine->SaveCheckpoint(bytes).ok());
        auto fresh = SssjEngine::Make(cfg, &sink);
        ASSERT_TRUE(fresh.ok());
        ASSERT_TRUE((*fresh)->LoadCheckpoint(bytes).ok());
        engine = *std::move(fresh);
      } else if (roll < 9 && param.migration) {
        const SchemeTarget& t = kTargets[rng.NextBelow(std::size(kTargets))];
        what = "switch";
        ASSERT_TRUE(engine->SwitchScheme(t.framework, t.scheme).ok());
      } else {
        now += BurstyGap(&rng);
        ASSERT_TRUE(engine->Push(now, RandomVec(&rng)).ok());
      }
      ASSERT_EQ(engine->MemoryBytes(), engine->MemoryBytesSlow())
          << "seed " << seed << " op " << op << " (" << what << ") engine "
          << param.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineAccountingTest,
    ::testing::Values(
        EngineCase{"StrL2Native", Framework::kStreaming, IndexScheme::kL2, 1,
                   false, false},
        EngineCase{"StrL2NativeTiered", Framework::kStreaming,
                   IndexScheme::kL2, 1, true, false},
        EngineCase{"StrInv", Framework::kStreaming, IndexScheme::kInv, 1,
                   false, true},
        EngineCase{"StrInvTiered", Framework::kStreaming, IndexScheme::kInv, 1,
                   true, true},
        EngineCase{"StrL2", Framework::kStreaming, IndexScheme::kL2, 1, false,
                   true},
        EngineCase{"StrL2Tiered", Framework::kStreaming, IndexScheme::kL2, 1,
                   true, true},
        EngineCase{"StrL2ap", Framework::kStreaming, IndexScheme::kL2ap, 1,
                   false, true},
        EngineCase{"StrL2apTiered", Framework::kStreaming, IndexScheme::kL2ap,
                   1, true, true},
        EngineCase{"StrL2Sharded2", Framework::kStreaming, IndexScheme::kL2,
                   2, false, true},
        EngineCase{"StrL2Sharded4Tiered", Framework::kStreaming,
                   IndexScheme::kL2, 4, true, true},
        EngineCase{"MbInv", Framework::kMiniBatch, IndexScheme::kInv, 1,
                   false, true},
        EngineCase{"MbL2apTiered", Framework::kMiniBatch, IndexScheme::kL2ap,
                   1, true, true},
        EngineCase{"MbL2", Framework::kMiniBatch, IndexScheme::kL2, 2, false,
                   true}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return std::string(info.param.name);
    });

// ---- service level: budgeted eviction decided on the oracle ----

// Mirrors JoinService's budget policy (EnforceBudget before the push,
// least-recently-active dormant sessions evicted first, transparent reload
// on the session's next push) over reference engines whose byte counts
// come from the walk. If the service's O(1) figures ever drifted from the
// walk, its eviction decisions would diverge from the model's.
class ServiceModel {
 public:
  ServiceModel(const EngineConfig& cfg, size_t budget)
      : cfg_(cfg), budget_(budget) {}

  void Create() {
    Session s;
    s.engine = MakeEngine();
    s.cached = s.engine->MemoryBytesSlow();
    s.last_active = clock_++;
    sessions_.push_back(std::move(s));
  }

  // Returns false when the push is refused for the budget.
  bool Push(size_t k, Timestamp ts, const SparseVector& vec) {
    size_t total = Total();
    if (total > budget_) {
      std::vector<size_t> order;
      for (size_t v = 0; v < sessions_.size(); ++v) {
        if (v != k) order.push_back(v);
      }
      std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
        return sessions_[a].last_active < sessions_[b].last_active;
      });
      for (const size_t v : order) {
        if (total <= budget_) break;
        Session& victim = sessions_[v];
        if (victim.evicted) continue;
        std::stringstream bytes;
        EXPECT_TRUE(victim.engine->SaveCheckpoint(bytes).ok());
        victim.spill = bytes.str();
        victim.engine = MakeEngine();
        victim.cached = victim.engine->MemoryBytesSlow();
        victim.evicted = true;
        evictions_.push_back(v);
        total = Total();
      }
      if (total > budget_) return false;
    }
    Session& s = sessions_[k];
    if (s.evicted) {
      std::stringstream bytes(s.spill);
      EXPECT_TRUE(s.engine->LoadCheckpoint(bytes).ok());
      s.evicted = false;
      ++reloads_;
    }
    EXPECT_TRUE(s.engine->Push(ts, vec).ok());
    s.cached = s.engine->MemoryBytesSlow();
    s.last_active = clock_++;
    return true;
  }

  size_t bytes(size_t k) const { return sessions_[k].engine->MemoryBytesSlow(); }
  bool evicted(size_t k) const { return sessions_[k].evicted; }
  const std::vector<size_t>& evictions() const { return evictions_; }
  uint64_t reloads() const { return reloads_; }

 private:
  struct Session {
    std::unique_ptr<SssjEngine> engine;
    size_t cached = 0;
    uint64_t last_active = 0;
    bool evicted = false;
    std::string spill;
  };

  std::unique_ptr<SssjEngine> MakeEngine() {
    auto engine = SssjEngine::Make(cfg_, &sink_);
    EXPECT_TRUE(engine.ok());
    return *std::move(engine);
  }
  size_t Total() const {
    size_t total = 0;
    for (const Session& s : sessions_) total += s.cached;
    return total;
  }

  EngineConfig cfg_;
  size_t budget_;
  CountingSink sink_;
  std::vector<Session> sessions_;
  uint64_t clock_ = 1;
  std::vector<size_t> evictions_;
  uint64_t reloads_ = 0;
};

TEST(MemoryAccountingServiceTest, EvictionAndReloadFollowTheWalkOracle) {
  for (const bool tiered : {false, true}) {
    for (const uint64_t seed : kSeeds) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " tiered=" + std::to_string(tiered));
      EngineConfig cfg;  // STR-L2, 1 thread: native-checkpoint evictable
      cfg.theta = kTheta;
      cfg.lambda = 0.005;  // long horizon: sessions grow past the budget
      if (tiered) cfg.tiered = SmallTiers();

      constexpr size_t kSessions = 3;
      constexpr size_t kBudget = 48u << 10;  // ~ two grown sessions
      JoinServiceOptions options;
      options.memory_budget_bytes = kBudget;
      options.spill_dir = ::testing::TempDir();
      JoinService service(options);
      ServiceModel model(cfg, kBudget);
      std::vector<JoinService::SessionHandle> handles;
      for (size_t k = 0; k < kSessions; ++k) {
        auto handle = service.CreateSession(
            {"acct-" + std::to_string(seed) + "-" + std::to_string(k), cfg,
             nullptr});
        ASSERT_TRUE(handle.ok()) << handle.status().message();
        handles.push_back(*handle);
        model.Create();
      }

      Rng rng(seed);
      Timestamp now = 0.0;
      uint64_t refused = 0;
      size_t active = 0;
      for (int op = 0; op < 900; ++op) {
        // Runs of pushes on one session leave the others dormant.
        if (rng.NextBelow(40) == 0) active = rng.NextBelow(kSessions);
        now += rng.NextDouble() * 0.3;
        const SparseVector vec = RandomVec(&rng);
        const bool model_ok = model.Push(active, now, vec);
        const Status status = service.Push(handles[active], now, vec);
        ASSERT_EQ(status.ok(), model_ok)
            << "seed " << seed << " op " << op << ": " << status.message();
        if (!model_ok) {
          ASSERT_EQ(status.code(), StatusCode::kResourceExhausted);
          ++refused;
        }
        const ServiceStats stats = service.Stats();
        ASSERT_EQ(stats.sessions_evicted, model.evictions().size())
            << "seed " << seed << " op " << op;
        ASSERT_EQ(stats.session_reloads, model.reloads())
            << "seed " << seed << " op " << op;
        size_t oracle_total = 0;
        for (size_t k = 0; k < kSessions; ++k) {
          auto bytes = service.SessionMemoryBytes(handles[k]);
          ASSERT_TRUE(bytes.ok());
          ASSERT_EQ(*bytes, model.bytes(k))
              << "seed " << seed << " op " << op << " session " << k;
          ASSERT_EQ(stats.sessions[k].evicted, model.evicted(k))
              << "seed " << seed << " op " << op << " session " << k;
          oracle_total += model.bytes(k);
        }
        ASSERT_EQ(stats.memory_bytes, oracle_total)
            << "seed " << seed << " op " << op;
      }
      // The budget actually bit, sessions came back, and the victims were
      // the dormant ones (never the pushing session itself).
      EXPECT_GT(model.evictions().size(), 0u);
      EXPECT_GT(model.reloads(), 0u);
      EXPECT_EQ(refused, service.Stats().budget_rejections);
      for (const auto& handle : handles) {
        EXPECT_TRUE(service.CloseSession(handle).ok());
      }
    }
  }
}

}  // namespace
}  // namespace sssj
