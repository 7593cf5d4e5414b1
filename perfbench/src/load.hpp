#pragma once
// Closed-loop load for `rct serve`: a fixed number of connections, each
// sending its next request only after the previous answer arrived.  Stages
// run one after another with a barrier between them.

#include <cstddef>
#include <string>
#include <vector>

namespace pb {

/// One unix-socket connection speaking newline-delimited requests.
class Client {
 public:
  explicit Client(const std::string& socket_path);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one line and returns the answer line (without its newline).
  std::string call(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct LoadResult {
  std::vector<std::string> responses;  ///< by request index
  std::vector<double> latency_s;       ///< by request index, send to full answer
  double wall_s = 0.0;                 ///< summed stage wall times
  std::string error;                   ///< connection failure, if any
};

/// Sends `stages` (protocol lines, ids already encoded) over `connections`
/// unix-socket connections to `socket_path`.
[[nodiscard]] LoadResult run_load(const std::string& socket_path,
                                  const std::vector<std::vector<std::string>>& stages,
                                  std::size_t connections);

}  // namespace pb
