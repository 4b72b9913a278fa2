#ifndef RAPID_TESTS_TEST_PATHS_H_
#define RAPID_TESTS_TEST_PATHS_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace rapid::test {

/// A file path under `::testing::TempDir()` that no other test process can
/// write: `name` prefixed with this process's id. `ctest -j` runs every
/// test case as its own process at the same time, so a fixture that saves
/// to a fixed name lets one process truncate a file another is loading.
inline std::string UniqueTempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" +
         name;
}

}  // namespace rapid::test

#endif  // RAPID_TESTS_TEST_PATHS_H_
