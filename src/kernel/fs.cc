#include "src/kernel/fs.h"

namespace erebor {

Status RamFs::Create(const std::string& path, Bytes contents) {
  auto file = std::make_unique<RamFile>();
  file->data = std::move(contents);
  files_[path] = std::move(file);
  return OkStatus();
}

StatusOr<RamFile*> RamFs::Open(const std::string& path, bool create) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    if (!create) {
      return NotFoundError("no such file: " + path);
    }
    files_[path] = std::make_unique<RamFile>();
    it = files_.find(path);
  }
  return it->second.get();
}

StatusOr<uint64_t> RamFs::SizeOf(const std::string& path) const {
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return NotFoundError("no such file: " + path);
  }
  return it->second->data.size();
}


int FdTable::Install(OpenFile file) {
  const int fd = next_fd_++;
  files_[fd] = std::move(file);
  return fd;
}

StatusOr<OpenFile*> FdTable::Get(int fd) {
  const auto it = files_.find(fd);
  if (it == files_.end()) {
    return InvalidArgumentError("bad file descriptor " + std::to_string(fd));
  }
  return &it->second;
}

Status FdTable::Close(int fd) {
  if (files_.erase(fd) == 0) {
    return InvalidArgumentError("bad file descriptor " + std::to_string(fd));
  }
  return OkStatus();
}

}  // namespace erebor
