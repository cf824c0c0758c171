// adml-service: minimal client for the tuning-as-a-service daemon
// (`autodml_cli serve --socket=PATH`). Reads line-delimited JSON requests
// from stdin, sends each over the Unix-domain socket, and prints the
// daemon's response line to stdout — the protocol is strictly one
// response per request, so a synchronous write/read loop is a complete
// client.
//
// usage: adml-service --socket=PATH < requests.ldjson
//
// Exit code 0 once stdin is exhausted, 1 on usage or socket errors
// (including the daemon closing the connection mid-request), 2 on a flag
// other than --socket.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>

#include "util/arg_parse.h"

namespace {

bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads from `fd` into `buffer` until it holds a full '\n'-terminated
/// line; pops and returns that line (without the newline).
bool read_line(int fd, std::string& buffer, std::string& line) {
  for (;;) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;  // EOF or error with a partial frame
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const autodml::util::ArgParser args(argc, argv);
  static constexpr std::string_view kFlags[] = {"socket"};
  if (const auto error = args.unknown_flag(kFlags)) {
    std::cerr << *error << "\n";
    return 2;
  }
  const std::string path = args.get("socket", "");
  if (path.empty()) {
    std::fprintf(stderr, "usage: adml-service --socket=PATH < requests.ldjson\n");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "adml-service: socket path too long: %s\n",
                 path.c_str());
    return 1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("adml-service: socket");
    return 1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::fprintf(stderr, "adml-service: connect(%s): %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(fd);
    return 1;
  }

  std::string request;
  std::string buffer;
  std::string response;
  int status = 0;
  while (std::getline(std::cin, request)) {
    if (request.empty()) continue;
    if (!write_all(fd, request + "\n") || !read_line(fd, buffer, response)) {
      std::fprintf(stderr, "adml-service: connection lost\n");
      status = 1;
      break;
    }
    std::fputs((response + "\n").c_str(), stdout);
    std::fflush(stdout);
  }
  ::close(fd);
  return status;
}
