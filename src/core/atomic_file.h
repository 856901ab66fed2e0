// Crash-safe whole-file replacement for checkpoints and spill manifests.
//
// Writing a checkpoint in place truncates the only copy first, so a crash
// mid-write (or a full disk) leaves a torn file where a loadable one used
// to be. AtomicFileWriter writes to "<path>.tmp" instead; Commit() flushes
// and fsyncs it, renames it over `path` (atomic on POSIX), and fsyncs the
// directory so the rename itself survives a crash. Readers of `path`
// therefore see either the previous complete file or the new complete
// file, never a prefix. A writer destroyed without a successful Commit()
// deletes its temp file, so failed saves leave nothing behind.
#ifndef SSSJ_CORE_ATOMIC_FILE_H_
#define SSSJ_CORE_ATOMIC_FILE_H_

#include <fstream>
#include <ostream>
#include <string>

#include "core/status.h"

namespace sssj {

class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  // The temp file's stream. When the temp file could not be created the
  // stream is in a failed state and Commit() reports kIoError.
  std::ostream& stream() { return out_; }

  // Flush + fsync of the temp file, without renaming it: lets a caller
  // stage several files and rename none unless all of them were written.
  // kIoError naming the temp file on failure.
  Status Finish();

  // Finish() if not done yet, then rename over the target (+ a best-effort
  // fsync of its directory). kIoError naming the file on any failure, with
  // the target untouched.
  Status Commit();

 private:
  std::string path_;
  std::string tmp_path_;
  std::ofstream out_;
  bool opened_ = false;     // we created tmp_path_ (so we may delete it)
  bool finished_ = false;   // tmp_path_ is complete and fsynced
  bool committed_ = false;  // tmp_path_ was renamed over path_
};

}  // namespace sssj

#endif  // SSSJ_CORE_ATOMIC_FILE_H_
