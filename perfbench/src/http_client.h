#ifndef RASED_PERFBENCH_HTTP_CLIENT_H_
#define RASED_PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

/// One completed HTTP exchange as the client saw it.
struct HttpReply {
  bool ok = false;      // transport succeeded and a full response arrived
  int status = 0;
  std::string body;
  std::string error;    // transport error when !ok
  int64_t latency_ns = 0;  // connect + send until the last response byte
};

/// Blocking HTTP/1.1 GET against 127.0.0.1:`port`. The dashboard answers
/// one request per connection ("Connection: close"); the client reads
/// until Content-Length bytes of body have arrived, then resets the
/// connection so a long run leaves no TIME_WAIT sockets behind.
HttpReply HttpGet(int port, const std::string& target);

/// Percent-encodes a query-string value.
std::string UrlEncode(std::string_view text);

}  // namespace perfbench

#endif  // RASED_PERFBENCH_HTTP_CLIENT_H_
