// Command-line plumbing shared by the tools/ binaries: flag lookup, strict
// numeric flag values, and whole-file read/write with '-' meaning
// stdin/stdout.
//
// Flags are `--name value` or bare `--name`, anywhere on the command line.
// A numeric flag whose value does not parse in full (`--seed x7`,
// `--horizon abc`, `--budget 12k`), or a value flag given last with nothing
// after it, is a usage error: the tool prints a message naming the flag and
// exits 2 rather than running with a silently substituted value.

#ifndef TOOLS_CLI_H_
#define TOOLS_CLI_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace dcc {
namespace cli {

[[noreturn]] inline void UsageError(const char* flag, const char* message,
                                    const char* value = nullptr) {
  if (value != nullptr) {
    std::fprintf(stderr, "%s: %s (got '%s')\n", flag, message, value);
  } else {
    std::fprintf(stderr, "%s: %s\n", flag, message);
  }
  std::exit(2);
}

// The value following `name`, or nullptr when the flag is absent.
inline const char* FlagValue(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      if (i + 1 >= argc) {
        UsageError(name, "needs a value");
      }
      return argv[i + 1];
    }
  }
  return nullptr;
}

inline bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return true;
    }
  }
  return false;
}

// Parses the whole of `text` as a finite number, or exits 2 naming `flag`.
inline double ParseDouble(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(value)) {
    UsageError(flag, "expected a number", text);
  }
  return value;
}

// Parses the whole of `text` as a non-negative decimal integer, or exits 2.
inline uint64_t ParseU64(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (text[0] < '0' || text[0] > '9' || *end != '\0' || errno == ERANGE) {
    UsageError(flag, "expected a non-negative integer", text);
  }
  return value;
}

inline double FlagDouble(int argc, char** argv, const char* name,
                         double fallback) {
  const char* value = FlagValue(argc, argv, name);
  return value != nullptr ? ParseDouble(name, value) : fallback;
}

inline uint64_t FlagU64(int argc, char** argv, const char* name,
                        uint64_t fallback) {
  const char* value = FlagValue(argc, argv, name);
  return value != nullptr ? ParseU64(name, value) : fallback;
}

// Reads all of `path` ("-" = stdin) into `out`. False when it cannot be
// opened; the caller reports the error in its own voice.
inline bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* f = path == "-" ? stdin : std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  out->clear();
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  if (f != stdin) {
    std::fclose(f);
  }
  return true;
}

// Writes `contents` to `path` ("-" = stdout). False when the file cannot be
// opened or fully written.
inline bool WriteFile(const std::string& path, const std::string& contents) {
  if (path == "-") {
    return std::fwrite(contents.data(), 1, contents.size(), stdout) ==
           contents.size();
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const bool ok =
      std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace cli
}  // namespace dcc

#endif  // TOOLS_CLI_H_
