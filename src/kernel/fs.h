// A minimal in-kernel RAM filesystem plus per-process descriptor tables. File contents
// live in simulated physical frames so that read/write syscalls exercise the usercopy
// (stac/clac) path the monitor interposes.
#ifndef EREBOR_SRC_KERNEL_FS_H_
#define EREBOR_SRC_KERNEL_FS_H_

#include <map>
#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/common/bytes.h"

namespace erebor {

struct RamFile {
  Bytes data;
};

class RamFs {
 public:
  Status Create(const std::string& path, Bytes contents);
  bool Exists(const std::string& path) const { return files_.count(path) > 0; }
  StatusOr<RamFile*> Open(const std::string& path, bool create);
  StatusOr<uint64_t> SizeOf(const std::string& path) const;

 private:
  std::map<std::string, std::unique_ptr<RamFile>> files_;
};

// Open-file description.
struct OpenFile {
  std::string path;
  RamFile* file = nullptr;
  uint64_t offset = 0;
  bool is_device = false;
  int device_id = 0;  // kernel device registry index
};

class FdTable {
 public:
  int Install(OpenFile file);
  StatusOr<OpenFile*> Get(int fd);
  Status Close(int fd);
  size_t open_count() const { return files_.size(); }

 private:
  std::map<int, OpenFile> files_;
  int next_fd_ = 3;  // 0..2 reserved for stdio
};

}  // namespace erebor

#endif  // EREBOR_SRC_KERNEL_FS_H_
