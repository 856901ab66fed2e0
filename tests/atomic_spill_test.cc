// Crash-safe checkpoint and spill writes: every save goes to <path>.tmp,
// is fsynced, and is renamed over the target only when complete. A save
// that cannot even create its temp file (here: a directory squats on
// <path>.tmp) must fail with kIoError and leave the previous checkpoint
// and spill manifest byte-for-byte intact and loadable; a successful save
// must leave no temp file behind.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "core/atomic_file.h"
#include "core/join_service.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;

std::string ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

bool Exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "sssj_atomic_" + tag;
  ::mkdir(dir.c_str(), 0755);
  auto listed = JoinService::ListSpilled(dir);
  if (listed.ok()) {
    for (const auto& entry : *listed) JoinService::RemoveSpill(entry);
  }
  return dir;
}

// A directory where the writer wants its temp file: open() must fail.
class TempSquatter {
 public:
  explicit TempSquatter(std::string target) : dir_(std::move(target) + ".tmp") {
    EXPECT_EQ(::mkdir(dir_.c_str(), 0755), 0) << dir_;
  }
  // The failed writer must have left the squatting directory alone.
  ~TempSquatter() { EXPECT_EQ(::rmdir(dir_.c_str()), 0) << dir_; }

 private:
  std::string dir_;
};

Stream TestStream(uint64_t seed, size_t n) {
  RandomStreamSpec spec;
  spec.n = n;
  spec.dims = 30;
  spec.seed = seed;
  return RandomStream(spec);
}

TEST(AtomicSpillTest, WriterReplacesWholeFileAndCleansUp) {
  const std::string dir = FreshDir("writer");
  const std::string path = dir + "/file.bin";
  {
    AtomicFileWriter file(path);
    file.stream() << "first";
    ASSERT_TRUE(file.Commit().ok());
  }
  EXPECT_EQ(ReadFile(path), "first");
  EXPECT_FALSE(Exists(path + ".tmp"));
  {
    // Abandoned without Commit: the target keeps its old bytes and the
    // temp file is removed.
    AtomicFileWriter file(path);
    file.stream() << "second, never committed";
  }
  EXPECT_EQ(ReadFile(path), "first");
  EXPECT_FALSE(Exists(path + ".tmp"));
  {
    TempSquatter squatter(path);
    AtomicFileWriter file(path);
    file.stream() << "third";
    const Status status = file.Commit();
    EXPECT_EQ(status.code(), StatusCode::kIoError);
    EXPECT_NE(status.message().find("for writing"), std::string::npos);
  }
  EXPECT_EQ(ReadFile(path), "first");
  std::remove(path.c_str());
  ::rmdir(dir.c_str());
}

TEST(AtomicSpillTest, FailedEngineSaveKeepsPreviousCheckpointLoadable) {
  const std::string dir = FreshDir("engine");
  const std::string path = dir + "/engine.ckpt";
  const Stream stream = TestStream(21, 200);
  EngineConfig cfg;  // STR-L2, 1 thread: the native SSSJENG2 format
  cfg.theta = 0.6;
  cfg.lambda = 0.05;
  auto engine = SssjEngine::Make(cfg);
  ASSERT_TRUE(engine.ok());
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE((*engine)->Push(stream[i].ts, stream[i].vec).ok());
  }
  ASSERT_TRUE((*engine)->SaveCheckpoint(path).ok());
  EXPECT_FALSE(Exists(path + ".tmp"));
  const std::string saved = ReadFile(path);
  ASSERT_FALSE(saved.empty());

  for (size_t i = 100; i < stream.size(); ++i) {
    ASSERT_TRUE((*engine)->Push(stream[i].ts, stream[i].vec).ok());
  }
  {
    TempSquatter squatter(path);
    const Status status = (*engine)->SaveCheckpoint(path);
    EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  }
  EXPECT_EQ(ReadFile(path), saved);  // previous checkpoint untouched

  // And it still restores the state it was saved from: the restored
  // engine holds the same postings, so its checkpoint has the same size
  // (only the posting-list order may differ).
  auto restored = SssjEngine::Make(cfg);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE((*restored)->LoadCheckpoint(path).ok());
  EXPECT_EQ((*restored)->next_id(), 100u);
  std::stringstream again;
  ASSERT_TRUE((*restored)->SaveCheckpoint(again).ok());
  EXPECT_EQ(again.str().size(), saved.size());

  // Once the squatter is gone the save goes through, leaving no temp.
  ASSERT_TRUE((*engine)->SaveCheckpoint(path).ok());
  EXPECT_FALSE(Exists(path + ".tmp"));
  EXPECT_NE(ReadFile(path), saved);
  std::remove(path.c_str());
  ::rmdir(dir.c_str());
}

// Evicts the dormant session "victim" of a fresh JoinService over
// `spill_dir` by growing a second session past the budget. Returns the
// service's eviction count (0 when the spill failed).
uint64_t EvictVictim(const std::string& spill_dir, const Stream& stream) {
  EngineConfig cfg;
  cfg.theta = 0.6;
  cfg.lambda = 0.001;
  JoinServiceOptions options;
  options.memory_budget_bytes = 24u << 10;
  options.spill_dir = spill_dir;
  JoinService service(options);
  auto victim = service.CreateSession({"victim", cfg, nullptr});
  auto grower = service.CreateSession({"grower", cfg, nullptr});
  EXPECT_TRUE(victim.ok() && grower.ok());
  for (size_t i = 0; i < 60; ++i) {
    EXPECT_TRUE(service.Push(*victim, stream[i].ts, stream[i].vec).ok());
  }
  for (const StreamItem& item : stream) {
    if (!service.Push(*grower, item.ts, item.vec).ok()) break;
    if (service.Stats().sessions_evicted > 0) break;
  }
  // Destroyed without closing: an evicted session's spill stays on disk.
  return service.Stats().sessions_evicted;
}

TEST(AtomicSpillTest, FailedRespillKeepsPreviousSpillPairRestorable) {
  const std::string dir = FreshDir("respill");
  const Stream stream = TestStream(33, 400);
  ASSERT_GT(EvictVictim(dir, stream), 0u);
  auto listed = JoinService::ListSpilled(dir);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  const JoinService::SpillEntry entry = (*listed)[0];
  ASSERT_EQ(entry.name, "victim");
  EXPECT_FALSE(Exists(entry.checkpoint_path + ".tmp"));
  EXPECT_FALSE(Exists(entry.manifest_path + ".tmp"));
  const std::string checkpoint = ReadFile(entry.checkpoint_path);
  const std::string manifest = ReadFile(entry.manifest_path);

  // A second instance spilling a session of the same name must not tear
  // the pair when either temp file cannot be created.
  for (const std::string& blocked :
       {entry.checkpoint_path, entry.manifest_path}) {
    SCOPED_TRACE("blocked " + blocked);
    {
      TempSquatter squatter(blocked);
      EXPECT_EQ(EvictVictim(dir, stream), 0u);
    }
    EXPECT_EQ(ReadFile(entry.checkpoint_path), checkpoint);
    EXPECT_EQ(ReadFile(entry.manifest_path), manifest);
    EXPECT_FALSE(Exists(entry.checkpoint_path + ".tmp"));
    EXPECT_FALSE(Exists(entry.manifest_path + ".tmp"));
  }

  // The surviving pair still lists and restores.
  listed = JoinService::ListSpilled(dir);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  EngineConfig cfg;
  cfg.theta = 0.6;
  cfg.lambda = 0.001;
  JoinService fresh;
  auto restored = fresh.RestoreSession({"victim", cfg, nullptr},
                                       (*listed)[0].checkpoint_path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::stringstream again;
  ASSERT_TRUE(fresh.SaveCheckpoint(*restored, again).ok());
  EXPECT_EQ(again.str().size(), checkpoint.size());
  JoinService::RemoveSpill((*listed)[0]);
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace sssj
