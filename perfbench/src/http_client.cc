#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <strings.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

bool SendAll(int fd, const std::string& data, std::string* error) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

bool HttpCall(uint16_t port, const char* method, const std::string& target,
              const std::string& body, HttpReply* reply, std::string* error) {
  Fd fd(socket(AF_INET, SOCK_STREAM, 0));
  if (fd.get() < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  timeval tv{};
  tv.tv_sec = 60;
  setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd.get(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int rc = 0;
  do {
    rc = connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    return false;
  }

  std::string request = std::string(method) + " " + target +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Connection: close\r\n"
                        "Content-Type: application/json\r\n"
                        "Content-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  if (!SendAll(fd.get(), request, error)) return false;

  std::string raw;
  char buf[16384];
  while (true) {
    const ssize_t n = recv(fd.get(), buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      *error = std::string("recv: ") + std::strerror(errno);
      return false;
    }
    if (n == 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }

  // Status line, headers, then the body up to EOF (Content-Length is
  // checked against it).
  const size_t head_end = raw.find("\r\n\r\n");
  if (raw.compare(0, 9, "HTTP/1.1 ") != 0 || head_end == std::string::npos) {
    *error = "malformed response";
    return false;
  }
  reply->status = std::atoi(raw.c_str() + 9);
  reply->body = raw.substr(head_end + 4);
  const std::string head = raw.substr(0, head_end);
  size_t at = 0;
  while ((at = head.find("\r\n", at)) != std::string::npos) {
    at += 2;
    if (strncasecmp(head.c_str() + at, "Content-Length:", 15) == 0) {
      const size_t length =
          static_cast<size_t>(std::strtoull(head.c_str() + at + 15, nullptr,
                                            10));
      if (length != reply->body.size()) {
        *error = "body shorter than Content-Length";
        return false;
      }
    }
  }
  return true;
}

}  // namespace perfbench
