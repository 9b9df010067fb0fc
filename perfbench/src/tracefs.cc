#include "tracefs.h"

#include <chrono>

namespace perfbench {

using temporadb::File;
using temporadb::Result;
using temporadb::Status;

namespace {

double Since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

class CountingFile : public File {
 public:
  CountingFile(std::unique_ptr<File> base, CountingFileSystem* fs)
      : base_(std::move(base)), fs_(fs) {}

  Result<size_t> ReadAt(uint64_t offset, char* buf, size_t n) override {
    const auto t0 = std::chrono::steady_clock::now();
    Result<size_t> r = base_->ReadAt(offset, buf, n);
    fs_->counters_.read_us += Since(t0);
    if (r.ok()) fs_->counters_.bytes_read += *r;
    return r;
  }
  Status WriteAt(uint64_t offset, const char* data, size_t n) override {
    const auto t0 = std::chrono::steady_clock::now();
    Status s = base_->WriteAt(offset, data, n);
    fs_->counters_.write_us += Since(t0);
    if (s.ok()) fs_->counters_.bytes_written += n;
    return s;
  }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Sync() override {
    const auto t0 = std::chrono::steady_clock::now();
    Status s = base_->Sync();
    fs_->RecordSync(Since(t0));
    return s;
  }
  Result<uint64_t> Size() override { return base_->Size(); }

 private:
  std::unique_ptr<File> base_;
  CountingFileSystem* fs_;
};

Result<std::unique_ptr<File>> CountingFileSystem::OpenFile(
    const std::string& path, bool create) {
  Result<std::unique_ptr<File>> f = base_->OpenFile(path, create);
  if (!f.ok()) return f.status();
  return std::unique_ptr<File>(new CountingFile(std::move(*f), this));
}

Status CountingFileSystem::SyncDir(const std::string& path) {
  const auto t0 = std::chrono::steady_clock::now();
  Status s = base_->SyncDir(path);
  RecordSync(Since(t0));
  return s;
}

void CountingFileSystem::RecordSync(double us) {
  ++counters_.syncs;
  counters_.sync_us += us;
  sync_us_.push_back(us);
}

}  // namespace perfbench
