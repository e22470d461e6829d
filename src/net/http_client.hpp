// Minimal blocking HTTP/1.1 client for loopback use: `darksilicon
// submit`, the serve_mix benchmark's tenants, and the tests. One
// request per connection (matching the server's Connection: close
// policy); response bodies are decoded from chunked or Content-Length
// framing and can be consumed incrementally via a sink callback --
// that is how a submit client renders rows as the daemon streams them.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ds::net {

struct ClientResponse {
  int status_code = 0;       // 0 only if the response line was unparsable
  std::string status_line;   // e.g. "HTTP/1.1 429 Too Many Requests"
  std::vector<std::pair<std::string, std::string>> headers;  // names lowered
  std::string body;          // decoded; empty when a sink consumed it

  /// Value of the first header with this (lower-case) name, or "".
  std::string_view Header(std::string_view name_lower) const;
};

struct FetchOptions {
  /// Extra request headers, spliced verbatim ("X-Client: bench-3").
  std::vector<std::pair<std::string, std::string>> headers;

  /// Decoded body bytes as they arrive; when set, ClientResponse.body
  /// stays empty. Called from the calling thread.
  std::function<void(std::string_view)> body_sink;

  /// Give up when the server sends nothing for this long. Streaming
  /// reads legitimately stall while a sweep waits in the admission
  /// queue, so the default is generous.
  int recv_timeout_ms = 120000;
};

/// Blocking request to 127.0.0.1:`port`. Transport failures (connect
/// refused, timeout, truncated response) throw std::runtime_error;
/// HTTP-level errors (4xx/5xx) are returned, not thrown.
ClientResponse Fetch(std::uint16_t port, std::string_view method,
                     std::string_view target, std::string_view body = {},
                     const FetchOptions& options = {});

}  // namespace ds::net
