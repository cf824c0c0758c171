#include "service/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.h"
#include "service/frame_reader.h"
#include "util/log.h"

namespace autodml::service {

namespace {

/// send() until the whole buffer is out (short writes, EINTR). A peer that
/// hung up yields EPIPE instead of a process-killing SIGPIPE.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

SocketServer::SocketServer(SessionManager& manager, ServerOptions options)
    : manager_(&manager), options_(std::move(options)) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.empty() ||
      options_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("SocketServer: socket path empty or too long: '" +
                             options_.socket_path + "'");
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error(std::string("SocketServer: socket(): ") +
                             std::strerror(errno));
  // A previous daemon's stale socket file would make bind fail; the path
  // is ours by contract, so reclaim it.
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("SocketServer: bind(" + options_.socket_path +
                             "): " + detail);
  }
  if (::listen(listen_fd_, 128) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("SocketServer: listen(): " + detail);
  }
  conn_pool_ = std::make_unique<util::ThreadPool>(
      options_.connection_threads > 0 ? options_.connection_threads : 1);
}

SocketServer::~SocketServer() {
  stop();
  // Unblock every connection handler, then join them (pool destructor).
  {
    util::MutexLock lock(mu_);
    for (int fd : connections_) ::shutdown(fd, SHUT_RDWR);
  }
  conn_pool_.reset();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::unlink(options_.socket_path.c_str());
}

void SocketServer::stop() {
  util::MutexLock lock(mu_);
  stop_ = true;
}

bool SocketServer::stopping() const {
  util::MutexLock lock(mu_);
  return stop_;
}

void SocketServer::serve() {
  ADML_INFO << "service: listening on " << options_.socket_path;
  while (!stopping() && !manager_->shutdown_requested()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    // The timeout bounds shutdown latency, not request latency: accepted
    // connections are served by the pool regardless of this loop.
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      ADML_WARN << "service: poll(): " << std::strerror(errno);
      break;
    }
    if (ready == 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      ADML_WARN << "service: accept(): " << std::strerror(errno);
      continue;
    }
    {
      util::MutexLock lock(mu_);
      connections_.push_back(fd);
    }
    ADML_COUNT("service.connections", 1);
    (void)conn_pool_->submit([this, fd] { handle_connection(fd); });
  }
  ADML_INFO << "service: accept loop stopped";
}

void SocketServer::handle_connection(int fd) {
  serve_stream(fd, *manager_,
               [fd](const std::string& line) { return write_all(fd, line); });
  // Unregister before close: once close() returns the kernel may hand the
  // same fd number to a new accept(), and a late erase would unregister
  // the *new* connection (leaving it invisible to shutdown).
  {
    util::MutexLock lock(mu_);
    connections_.erase(
        std::remove(connections_.begin(), connections_.end(), fd),
        connections_.end());
  }
  ::close(fd);
}

}  // namespace autodml::service
