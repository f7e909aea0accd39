#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "stats.h"

namespace perfbench {

namespace {

// Parses "HTTP/1.1 200 OK\r\n...Content-Length: n\r\n...\r\n\r\n". Returns
// the header length, or 0 while the header block is incomplete.
size_t ParseHead(const std::string& buf, int* status, size_t* content_length,
                 bool* has_length) {
  size_t end = buf.find("\r\n\r\n");
  if (end == std::string::npos) return 0;
  *status = 0;
  size_t sp = buf.find(' ');
  if (sp != std::string::npos && sp < end) {
    *status = std::atoi(buf.c_str() + sp + 1);
  }
  *has_length = false;
  size_t line = buf.find("\r\n");
  while (line != std::string::npos && line < end) {
    size_t next = buf.find("\r\n", line + 2);
    std::string header = buf.substr(line + 2, next - line - 2);
    static const char kName[] = "content-length:";
    if (header.size() > sizeof(kName) - 1 &&
        strncasecmp(header.c_str(), kName, sizeof(kName) - 1) == 0) {
      *content_length = std::strtoull(header.c_str() + sizeof(kName) - 1,
                                      nullptr, 10);
      *has_length = true;
    }
    line = next;
  }
  return end + 4;
}

}  // namespace

HttpReply HttpGet(int port, const std::string& target) {
  HttpReply reply;
  const int64_t start = NowNanos();
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    reply.error = std::string("socket: ") + std::strerror(errno);
    return reply;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    reply.error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return reply;
  }
  std::string request = "GET " + target +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      reply.error = std::string("send: ") + std::strerror(errno);
      ::close(fd);
      return reply;
    }
    sent += static_cast<size_t>(n);
  }

  std::string buf;
  char chunk[16384];
  size_t head = 0, content_length = 0;
  bool has_length = false;
  for (;;) {
    if (head == 0) head = ParseHead(buf, &reply.status, &content_length,
                                    &has_length);
    if (head != 0 && has_length && buf.size() >= head + content_length) break;
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF (or error): whatever arrived is the response
    buf.append(chunk, static_cast<size_t>(n));
  }
  reply.latency_ns = NowNanos() - start;

  // The server closes after every response; resetting from this side too
  // keeps the loopback port space free of TIME_WAIT entries.
  linger lin{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lin, sizeof(lin));
  ::close(fd);

  if (head == 0) {
    reply.error = "incomplete response header";
    return reply;
  }
  size_t body_len = has_length ? content_length : buf.size() - head;
  if (buf.size() < head + body_len) {
    reply.error = "truncated response body";
    return reply;
  }
  reply.body = buf.substr(head, body_len);
  reply.ok = true;
  return reply;
}

std::string UrlEncode(std::string_view text) {
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  for (char c : text) {
    unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u) || c == '-' || c == '_' || c == '.' || c == '~' ||
        c == ',') {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 15]);
    }
  }
  return out;
}

}  // namespace perfbench
