// A scratch directory owned by one test process.
//
// The directory sits under std::filesystem::temp_directory_path(), is
// named by a tag and the process id, starts empty and is removed by the
// destructor, whether the test passed or stopped on a failed ASSERT.
// Two builds running the same suite at once (say, the default and the
// ASan tree) therefore never share or delete each other's files.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace ss::test {

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("ss_" + tag + "." + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string path() const { return path_.string(); }
  // Path of `name` inside the directory.
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace ss::test
