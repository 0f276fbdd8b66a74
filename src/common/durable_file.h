// Durable file primitives for the crash-safe JSONL protocols (campaign
// manifests, service responses, health snapshots).
//
// Two guarantees a plain std::ofstream cannot give:
//
//   * DurableAppender writes each line (payload + '\n') in a SINGLE write(2)
//     call and fsyncs before returning, so a committed line survives both a
//     kill -9 and a power cut.  Only the line in flight at the instant of
//     death can be torn -- exactly the case the read side already tolerates.
//
//   * atomic_write_file publishes whole-file content via temp file + fsync +
//     rename(2) (+ directory fsync), so readers -- and a restarted process --
//     see either the complete old content or the complete new content, never
//     a torn prefix.  Campaign manifests create their HEADER this way: a
//     torn header would make resume refuse the whole manifest, which is the
//     one torn line the tolerance on scenario lines cannot absorb.
#pragma once

#include <cstddef>
#include <string>

namespace vstack {

class DurableAppender {
 public:
  DurableAppender() = default;
  ~DurableAppender();

  DurableAppender(const DurableAppender&) = delete;
  DurableAppender& operator=(const DurableAppender&) = delete;
  DurableAppender(DurableAppender&& other) noexcept;
  DurableAppender& operator=(DurableAppender&& other) noexcept;

  /// Open `path` for appending (created if absent).  Throws vstack::Error
  /// when the file cannot be opened.
  ///
  /// With `repair_torn_tail` set, a file whose last byte is not '\n' gets a
  /// newline appended (and fsynced) before the first append.  This closes a
  /// real crash window for every JSONL protocol that REOPENS a file: after
  /// a kill -9 mid-append the file ends in half a line, and a plain append
  /// would concatenate the next record onto the torn fragment -- producing
  /// one garbage line and silently losing the new record.  The repair turns
  /// the fragment into its own (unparseable, skipped-on-read) line instead.
  void open(const std::string& path, bool repair_torn_tail = false);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Append `line` + '\n' in one write(2), then fsync.  Throws on short
  /// writes or I/O errors.
  void append_line(const std::string& line);

  /// fsync without writing; no-op when closed.
  void sync();

  /// fsync + close; no-op when already closed.  Called by the destructor
  /// (which swallows errors -- call close() yourself when they matter).
  void close();

 private:
  int fd_ = -1;
  std::string path_;
};

/// Replace `path` with `content` atomically: write to `path.tmp.<pid>` in
/// the same directory, fsync, rename over `path`, fsync the directory.
/// Throws vstack::Error on any I/O failure (the temp file is removed).
void atomic_write_file(const std::string& path, const std::string& content);

/// The whole content of `path`.  Throws vstack::Error ("cannot open
/// '<path>'") when the file cannot be opened.
std::string read_file(const std::string& path);

// ---------------------------------------------------------------------------
// Lease-file primitives (src/shard's worker-coordination protocol; see
// docs/distributed_campaigns.md).  All are local-filesystem operations --
// the atomicity guarantees (O_EXCL creation, rename(2)) are what POSIX
// gives on one machine; they are NOT NFS-safe.

/// Create `path` with `content` only if it does not already exist
/// (O_CREAT | O_EXCL), fsync it, and fsync the directory so the name
/// survives a power cut.  Returns false when the file already exists --
/// the single-winner "claim" primitive: of N concurrent callers exactly
/// one returns true.  Throws vstack::Error on any other I/O failure.
bool create_exclusive_file(const std::string& path, const std::string& content);

/// Refresh `path`'s mtime to now (the lease heartbeat).  Returns false when
/// the file no longer exists (the lease was reclaimed or released); throws
/// on other I/O errors.
bool touch_file(const std::string& path);

/// Seconds since `path`'s last modification (realtime clock), for lease
/// expiry checks.  Returns false when the file does not exist.  Negative
/// ages (clock steps) are clamped to 0.
bool file_age_seconds(const std::string& path, double& age_s);

/// rename(2) that reports a missing source as false instead of throwing --
/// the single-winner "reclaim" primitive: of N concurrent callers renaming
/// the same source away, exactly one succeeds.  Throws vstack::Error on
/// errors other than ENOENT.
bool try_rename(const std::string& from, const std::string& to);

/// Best-effort unlink; returns false when the file was already gone.
bool remove_file(const std::string& path);

/// Remove orphaned `*.tmp.<pid>` files left under `dir` by an
/// atomic_write_file interrupted between fsync and rename (crash, kill -9,
/// or a close/rename failure).  Returns the number of files removed;
/// unreadable entries and unremovable files are skipped silently.
///
/// Call this only from a coordinator at STARTUP (the shard supervisor
/// before spawning workers, the campaign server before accepting jobs) --
/// never from a worker, whose sibling processes may have live temp files
/// in flight with the same naming pattern.
std::size_t sweep_stale_temp_files(const std::string& dir,
                                   bool recursive = false);

}  // namespace vstack
