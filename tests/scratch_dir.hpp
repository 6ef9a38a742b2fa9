// Per-process scratch directories for tests that write snapshots and
// datasets.
//
// Every directory lives under TempDir()/dtr_<pid>, so two test binaries
// running at once (two build trees, or several ctest entries of one
// binary) never overwrite each other's files.  The per-process root is
// removed when the test program ends.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace dtr::test_support {

inline const std::filesystem::path& scratch_root() {
  static const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) /
      ("dtr_" + std::to_string(::getpid()));
  return root;
}

/// A fresh, empty directory `name` under this process's scratch root.
inline std::filesystem::path scratch_dir(const std::string& name) {
  const std::filesystem::path dir = scratch_root() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

class ScratchCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ignored;
    std::filesystem::remove_all(scratch_root(), ignored);
  }
};

inline ::testing::Environment* const kScratchCleanup =
    ::testing::AddGlobalTestEnvironment(new ScratchCleanup);

}  // namespace dtr::test_support
