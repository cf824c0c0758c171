#include "service/frame_reader.h"

#include <unistd.h>

#include <cerrno>

#include "service/session_manager.h"

namespace autodml::service {

FrameReader::Status FrameReader::next(std::string& frame) {
  for (;;) {
    const std::size_t nl = buffer_.find('\n', scanned_);
    if (nl != std::string::npos) {
      const bool already_reported = skipping_;
      const bool oversized = nl > kMaxFrameBytes;
      if (!already_reported && !oversized) frame.assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      scanned_ = 0;
      skipping_ = false;
      if (already_reported) continue;
      return oversized ? Status::kTooLarge : Status::kFrame;
    }
    if (skipping_ || buffer_.size() > kMaxFrameBytes) {
      const bool report = !skipping_;
      buffer_.clear();
      scanned_ = 0;
      skipping_ = true;
      if (report) return Status::kTooLarge;
    } else {
      scanned_ = buffer_.size();
    }
    if (eof_) {
      if (buffer_.empty()) return Status::kEnd;
      frame = std::move(buffer_);
      buffer_.clear();
      scanned_ = 0;
      return Status::kFrame;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      eof_ = true;  // EOF or error (including shutdown())
      continue;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void serve_stream(int fd, SessionManager& manager,
                  const std::function<bool(const std::string&)>& write) {
  FrameReader reader(fd);
  std::string line;
  while (!manager.shutdown_requested()) {
    const FrameReader::Status status = reader.next(line);
    if (status == FrameReader::Status::kEnd) return;
    if (status == FrameReader::Status::kFrame && line.empty()) continue;
    const std::string response = status == FrameReader::Status::kTooLarge
                                     ? manager.reject_oversized_frame()
                                     : manager.handle_line(line);
    if (!write(response + "\n")) return;
  }
}

}  // namespace autodml::service
