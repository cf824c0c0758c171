// Bounded LDJSON frame reader shared by the daemon's transports.
//
// `serve --stdio` and the Unix-socket server both read newline-delimited
// request frames from a file descriptor. An unbounded line buffer would let
// one client that never sends '\n' grow the daemon's memory without limit,
// so both run serve_stream() over a FrameReader: a line longer than the cap
// is reported once as kTooLarge and answered with a typed frame-too-large
// error, its remaining bytes are dropped up to the next newline without
// being buffered, and the frames after it read normally. Memory per
// connection stays below cap + one read chunk.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

namespace autodml::service {

/// Longest request frame the daemon accepts, in bytes, newline excluded.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 20;

class FrameReader {
 public:
  enum class Status {
    kFrame,     // `frame` holds the next line, newline stripped
    kTooLarge,  // a line exceeded the cap; it is being skipped
    kEnd,       // end of input or a read error
  };

  /// Reads from `fd`, which the caller keeps open and owns.
  explicit FrameReader(int fd) : fd_(fd) {}

  /// Blocks until the next frame. Lines may be empty; an unterminated
  /// final line is returned as a frame, as std::getline would.
  Status next(std::string& frame);

 private:
  int fd_;
  std::string buffer_;       // bytes read but not yet returned
  std::size_t scanned_ = 0;  // prefix of buffer_ known to hold no '\n'
  bool skipping_ = false;    // inside an oversized line, dropping to '\n'
  bool eof_ = false;
};

class SessionManager;

/// The transport loop both daemon front ends run: answers every frame read
/// from `fd` through `manager` (an oversized one with
/// SessionManager::reject_oversized_frame()) and passes each response
/// line, newline included, to `write`. Returns at end of input, when
/// `write` returns false, or once a shutdown has been requested.
void serve_stream(int fd, SessionManager& manager,
                  const std::function<bool(const std::string&)>& write);

}  // namespace autodml::service
