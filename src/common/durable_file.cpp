#include "common/durable_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/failpoint.h"

namespace vstack {

namespace {

std::string errno_text() { return std::strerror(errno); }

/// Directory part of `path` ("." when there is none); used to fsync the
/// directory entry after a rename so the new name itself is durable.
std::string directory_of(const std::string& path) {
  const auto slash = path.rfind('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

void fsync_directory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best effort: some filesystems refuse dir opens
  ::fsync(fd);
  ::close(fd);
}

/// fsync with EINTR retry: a signal landing mid-fsync must not abort a
/// durability barrier (the data may not have reached the platter yet, so
/// giving up would silently void the crash-safety guarantee).  `fp` names
/// the injection point wrapped around each attempt.
int fsync_retry(int fd, const char* fp) {
  for (;;) {
    const int rc = VS_FAILPOINT_SYSCALL(fp, ::fsync(fd));
    if (rc == 0 || errno != EINTR) return rc;
  }
}

/// close with EINTR handling: POSIX leaves the descriptor state
/// unspecified after an EINTR'd close, and on Linux the fd IS released --
/// retrying could close a recycled descriptor owned by another thread.
/// Treat EINTR as success (the kernel finishes the close asynchronously);
/// every caller that needs durability has already fsynced.
int close_nointr(int fd, const char* fp) {
  const int rc = VS_FAILPOINT_SYSCALL(fp, ::close(fd));
  if (rc != 0 && errno == EINTR) return 0;
  return rc;
}

void write_all(int fd, const char* data, std::size_t n,
               const std::string& path, const char* fp) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w =
        VS_FAILPOINT_SYSCALL(fp, ::write(fd, data + off, n - off));
    if (w < 0) {
      if (errno == EINTR) continue;
      VS_FAIL("write to '" + path + "' failed: " + errno_text());
    }
    off += static_cast<std::size_t>(w);
  }
}

}  // namespace

DurableAppender::~DurableAppender() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

DurableAppender::DurableAppender(DurableAppender&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
  other.path_.clear();
}

DurableAppender& DurableAppender::operator=(DurableAppender&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::fsync(fd_);
      ::close(fd_);
    }
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
    other.path_.clear();
  }
  return *this;
}

void DurableAppender::open(const std::string& path, bool repair_torn_tail) {
  close();
  // O_RDWR (not O_WRONLY): the torn-tail check needs to pread the last
  // byte.  O_APPEND still forces every write to the end of the file.
  fd_ = VS_FAILPOINT_SYSCALL(
      "durable_file.open.open",
      ::open(path.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0644));
  VS_REQUIRE(fd_ >= 0,
             "cannot open '" + path + "' for appending: " + errno_text());
  path_ = path;
  if (!repair_torn_tail) return;

  struct stat st;
  VS_REQUIRE(::fstat(fd_, &st) == 0,
             "fstat of '" + path + "' failed: " + errno_text());
  if (st.st_size == 0) return;
  char last = '\n';
  // pread with EINTR retry (the audit): a signal here would otherwise turn
  // a perfectly healthy reopen into a spurious failure.
  ssize_t got;
  do {
    got = VS_FAILPOINT_SYSCALL("durable_file.open.pread",
                               ::pread(fd_, &last, 1, st.st_size - 1));
  } while (got < 0 && errno == EINTR);
  VS_REQUIRE(got == 1, "pread of '" + path + "' failed: " + errno_text());
  if (last == '\n') return;
  // A crash tore the final line; terminate the fragment so it parses (and
  // is skipped) as its own line instead of swallowing the next append.
  write_all(fd_, "\n", 1, path_, "durable_file.repair.write");
  VS_REQUIRE(fsync_retry(fd_, "durable_file.repair.fsync") == 0,
             "fsync of '" + path_ + "' failed: " + errno_text());
}

void DurableAppender::append_line(const std::string& line) {
  VS_REQUIRE(fd_ >= 0, "DurableAppender: append_line on a closed file");
  // One write(2) for payload + newline: O_APPEND makes the offset atomic,
  // and a single syscall minimizes the torn-line window to the kernel's
  // own copy (which the read side tolerates on the final line).
  std::string buf;
  buf.reserve(line.size() + 1);
  buf += line;
  buf += '\n';
  VS_FAILPOINT("durable_file.append.before_write");
  write_all(fd_, buf.data(), buf.size(), path_, "durable_file.append.write");
  // Crash here: the line is in the page cache but not yet durable -- the
  // reader may see it or a torn prefix of it after a power cut.
  VS_FAILPOINT("durable_file.append.after_write");
  VS_REQUIRE(fsync_retry(fd_, "durable_file.append.fsync") == 0,
             "fsync of '" + path_ + "' failed: " + errno_text());
  // Crash here: the line is fully committed; the caller's next step (a
  // rename, a lease release) has not happened yet.
  VS_FAILPOINT("durable_file.append.after_fsync");
}

void DurableAppender::sync() {
  if (fd_ >= 0) {
    VS_REQUIRE(fsync_retry(fd_, "durable_file.sync.fsync") == 0,
               "fsync of '" + path_ + "' failed: " + errno_text());
  }
}

void DurableAppender::close() {
  if (fd_ < 0) return;
  ::fsync(fd_);
  const int rc = close_nointr(fd_, "durable_file.close.close");
  fd_ = -1;
  VS_REQUIRE(rc == 0, "close of '" + path_ + "' failed: " + errno_text());
}

void atomic_write_file(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = VS_FAILPOINT_SYSCALL(
      "durable_file.atomic.open",
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
  VS_REQUIRE(fd >= 0, "cannot create '" + tmp + "': " + errno_text());
  try {
    write_all(fd, content.data(), content.size(), tmp,
              "durable_file.atomic.write");
    VS_REQUIRE(fsync_retry(fd, "durable_file.atomic.fsync") == 0,
               "fsync of '" + tmp + "' failed: " + errno_text());
    // Crash here: a fully-written orphan `path.tmp.<pid>` survives and the
    // target is untouched -- the window sweep_stale_temp_files exists for.
    VS_FAILPOINT("durable_file.atomic.after_fsync");
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  VS_REQUIRE(close_nointr(fd, "durable_file.atomic.close") == 0,
             "close of '" + tmp + "' failed: " + errno_text());
  // Crash here: same orphan window as after_fsync, with the fd closed.
  VS_FAILPOINT("durable_file.atomic.before_rename");
  if (VS_FAILPOINT_SYSCALL("durable_file.atomic.rename",
                           ::rename(tmp.c_str(), path.c_str())) != 0) {
    const std::string why = errno_text();
    ::unlink(tmp.c_str());
    VS_FAIL("rename '" + tmp + "' -> '" + path + "' failed: " + why);
  }
  // Crash here: the rename is visible but the directory entry is not yet
  // durable -- a power cut may roll the name back to the old content.
  VS_FAILPOINT("durable_file.atomic.after_rename");
  fsync_directory(directory_of(path));
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  VS_REQUIRE(static_cast<bool>(file), "cannot open '" + path + "'");
  std::ostringstream oss;
  oss << file.rdbuf();
  return oss.str();
}

bool create_exclusive_file(const std::string& path,
                           const std::string& content) {
  const int fd = VS_FAILPOINT_SYSCALL(
      "durable_file.exclusive.open",
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644));
  if (fd < 0) {
    if (errno == EEXIST) return false;
    VS_FAIL("cannot create '" + path + "': " + errno_text());
  }
  try {
    write_all(fd, content.data(), content.size(), path,
              "durable_file.exclusive.write");
    VS_REQUIRE(fsync_retry(fd, "durable_file.exclusive.fsync") == 0,
               "fsync of '" + path + "' failed: " + errno_text());
    // Crash here: the claim is won and durable but the winner is dead --
    // for leases, exactly the window expiry-based reclamation covers.
    VS_FAILPOINT("durable_file.exclusive.after_fsync");
  } catch (...) {
    ::close(fd);
    ::unlink(path.c_str());
    throw;
  }
  VS_REQUIRE(close_nointr(fd, "durable_file.exclusive.close") == 0,
             "close of '" + path + "' failed: " + errno_text());
  fsync_directory(directory_of(path));
  return true;
}

bool touch_file(const std::string& path) {
  if (VS_FAILPOINT_SYSCALL("durable_file.touch.utimensat",
                           ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0)) ==
      0) {
    return true;
  }
  if (errno == ENOENT) return false;
  VS_FAIL("touch of '" + path + "' failed: " + errno_text());
}

bool file_age_seconds(const std::string& path, double& age_s) {
  struct stat st;
  if (VS_FAILPOINT_SYSCALL("durable_file.age.stat",
                           ::stat(path.c_str(), &st)) != 0) {
    if (errno == ENOENT) return false;
    VS_FAIL("stat of '" + path + "' failed: " + errno_text());
  }
  struct timespec now;
  VS_REQUIRE(::clock_gettime(CLOCK_REALTIME, &now) == 0,
             "clock_gettime failed: " + errno_text());
  const double age =
      (static_cast<double>(now.tv_sec) - static_cast<double>(st.st_mtim.tv_sec)) +
      (static_cast<double>(now.tv_nsec) -
       static_cast<double>(st.st_mtim.tv_nsec)) *
          1e-9;
  age_s = std::max(0.0, age);
  return true;
}

bool try_rename(const std::string& from, const std::string& to) {
  if (VS_FAILPOINT_SYSCALL("durable_file.try_rename.rename",
                           ::rename(from.c_str(), to.c_str())) == 0) {
    return true;
  }
  if (errno == ENOENT) return false;
  VS_FAIL("rename '" + from + "' -> '" + to + "' failed: " + errno_text());
}

bool remove_file(const std::string& path) {
  if (VS_FAILPOINT_SYSCALL("durable_file.remove.unlink",
                           ::unlink(path.c_str())) == 0) {
    return true;
  }
  if (errno == ENOENT) return false;
  VS_FAIL("unlink of '" + path + "' failed: " + errno_text());
}

std::size_t sweep_stale_temp_files(const std::string& dir, bool recursive) {
  namespace fs = std::filesystem;
  const auto is_stale_temp = [](const fs::path& p) {
    const std::string name = p.filename().string();
    const auto pos = name.rfind(".tmp.");
    if (pos == std::string::npos) return false;
    const std::string pid = name.substr(pos + 5);
    if (pid.empty()) return false;
    return std::all_of(pid.begin(), pid.end(),
                       [](unsigned char c) { return std::isdigit(c); });
  };

  std::size_t removed = 0;
  std::error_code ec;
  const auto sweep_one = [&](const fs::directory_entry& entry) {
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec) || !is_stale_temp(entry.path())) {
      return;
    }
    // Best effort: a vanished or unremovable orphan is not worth failing
    // startup over -- the next start retries.
    std::error_code rm_ec;
    if (fs::remove(entry.path(), rm_ec)) ++removed;
  };
  if (recursive) {
    for (auto it = fs::recursive_directory_iterator(
             dir, fs::directory_options::skip_permission_denied, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      sweep_one(*it);
    }
  } else {
    for (auto it =
             fs::directory_iterator(
                 dir, fs::directory_options::skip_permission_denied, ec);
         !ec && it != fs::directory_iterator(); it.increment(ec)) {
      sweep_one(*it);
    }
  }
  return removed;
}

}  // namespace vstack
