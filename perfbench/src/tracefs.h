// A counting, timing FileSystem decorator for the traced run: wraps the
// POSIX filesystem and tallies bytes, calls and time per operation kind.
#ifndef PERFBENCH_TRACEFS_H_
#define PERFBENCH_TRACEFS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/fs.h"

namespace perfbench {

/// Cumulative I/O tallies; subtract two snapshots to get a phase's share.
struct IoCounters {
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  uint64_t syncs = 0;       ///< File::Sync plus FileSystem::SyncDir.
  double write_us = 0;
  double read_us = 0;
  double sync_us = 0;

  IoCounters operator+(const IoCounters& o) const {
    return {bytes_written + o.bytes_written, bytes_read + o.bytes_read,
            syncs + o.syncs, write_us + o.write_us, read_us + o.read_us,
            sync_us + o.sync_us};
  }
  IoCounters operator-(const IoCounters& o) const {
    return {bytes_written - o.bytes_written, bytes_read - o.bytes_read,
            syncs - o.syncs, write_us - o.write_us, read_us - o.read_us,
            sync_us - o.sync_us};
  }
};

class CountingFileSystem : public temporadb::FileSystem {
 public:
  explicit CountingFileSystem(temporadb::FileSystem* base) : base_(base) {}

  const IoCounters& counters() const { return counters_; }
  /// Latency of every sync since construction, in order.
  const std::vector<double>& sync_latencies_us() const { return sync_us_; }

  temporadb::Result<std::unique_ptr<temporadb::File>> OpenFile(
      const std::string& path, bool create) override;
  temporadb::Status RenameFile(const std::string& from,
                               const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  temporadb::Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  temporadb::Status MakeDir(const std::string& path) override {
    return base_->MakeDir(path);
  }
  temporadb::Status RemoveDir(const std::string& path) override {
    return base_->RemoveDir(path);
  }
  temporadb::Status SyncDir(const std::string& path) override;
  temporadb::Result<std::vector<std::string>> ListDir(
      const std::string& path) override {
    return base_->ListDir(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  bool DirExists(const std::string& path) override {
    return base_->DirExists(path);
  }

 private:
  friend class CountingFile;
  void RecordSync(double us);

  temporadb::FileSystem* base_;
  IoCounters counters_;
  std::vector<double> sync_us_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACEFS_H_
