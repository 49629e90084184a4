// A minimal HTTP/1.1 client over loopback, written for the benchmark so
// that request timing starts and stops outside the program: one request
// per connection (the server closes after each response), blocking I/O
// with a receive timeout.
#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct HttpReply {
  int status = 0;
  std::string body;
};

/// Sends `method target` with `body` to 127.0.0.1:`port` and reads the
/// whole response. False, with `*error` set, on a transport failure or a
/// malformed response.
bool HttpCall(uint16_t port, const char* method, const std::string& target,
              const std::string& body, HttpReply* reply, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
