#include "load.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

namespace pb {

using Clock = std::chrono::steady_clock;

Client::Client(const std::string& path) {
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd_);
    throw std::runtime_error("socket path too long");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    throw std::runtime_error("connect " + path + ": " + why);
  }
}

Client::~Client() { ::close(fd_); }

std::string Client::call(const std::string& line) {
  const std::string out = line + "\n";
  for (std::size_t sent = 0; sent < out.size();) {
    const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("send: " + std::string(std::strerror(errno)));
    sent += static_cast<std::size_t>(n);
  }
  while (true) {
    if (const std::size_t nl = buffer_.find('\n'); nl != std::string::npos) {
      std::string reply = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return reply;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) throw std::runtime_error("connection closed by the server");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

LoadResult run_load(const std::string& socket_path,
                    const std::vector<std::vector<std::string>>& stages, std::size_t connections) {
  LoadResult result;
  std::size_t total = 0;
  for (const auto& stage : stages) total += stage.size();
  result.responses.resize(total);
  result.latency_s.resize(total);
  try {
    std::vector<std::unique_ptr<Client>> conns;
    for (std::size_t c = 0; c < connections; ++c)
      conns.push_back(std::make_unique<Client>(socket_path));
    std::size_t base = 0;
    for (const auto& stage : stages) {
      std::atomic<std::size_t> next{0};
      std::atomic<bool> failed{false};
      std::vector<std::string> errors(connections);
      const auto start = Clock::now();
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
          try {
            for (std::size_t i = next++; i < stage.size() && !failed; i = next++) {
              const auto t0 = Clock::now();
              result.responses[base + i] = conns[c]->call(stage[i]);
              result.latency_s[base + i] =
                  std::chrono::duration<double>(Clock::now() - t0).count();
            }
          } catch (const std::exception& e) {
            errors[c] = e.what();
            failed = true;
          }
        });
      }
      for (std::thread& t : threads) t.join();
      result.wall_s += std::chrono::duration<double>(Clock::now() - start).count();
      for (const std::string& e : errors)
        if (!e.empty()) throw std::runtime_error(e);
      base += stage.size();
    }
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  return result;
}

}  // namespace pb
