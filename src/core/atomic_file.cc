#include "core/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <utility>

namespace sssj {

namespace {

// fsync through a fresh descriptor: std::ofstream does not expose its own.
bool SyncPath(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  return ::close(fd) == 0 && ok;
}

std::string ParentDir(const std::string& path) {
  const size_t slash = path.rfind('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

}  // namespace

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp") {
  out_.open(tmp_path_, std::ios::binary | std::ios::trunc);
  opened_ = out_.is_open();
}

AtomicFileWriter::~AtomicFileWriter() {
  if (opened_ && !committed_) {
    out_.close();
    std::remove(tmp_path_.c_str());
  }
}

Status AtomicFileWriter::Finish() {
  if (finished_) return Status::Ok();
  if (!opened_) {
    return Status::IoError("cannot open " + tmp_path_ + " for writing");
  }
  out_.flush();
  const bool written = out_.good();
  out_.close();
  if (!written || out_.fail()) {
    return Status::IoError("write failure on " + tmp_path_);
  }
  if (!SyncPath(tmp_path_, O_WRONLY)) {
    return Status::IoError("fsync failed on " + tmp_path_);
  }
  finished_ = true;
  return Status::Ok();
}

Status AtomicFileWriter::Commit() {
  Status finished = Finish();
  if (!finished.ok()) return finished;
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    return Status::IoError("cannot rename " + tmp_path_ + " to " + path_);
  }
  committed_ = true;
  // Best effort: the new file is already in place, and some filesystems
  // refuse fsync on a directory. A failure here only weakens durability
  // of the rename across a power cut.
  SyncPath(ParentDir(path_), O_RDONLY | O_DIRECTORY);
  return Status::Ok();
}

}  // namespace sssj
