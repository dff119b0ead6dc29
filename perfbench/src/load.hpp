// The benchmark's own load generators over serve::Server::submit.
//
// Open loop: arrivals follow a seeded Poisson schedule drawn before the
// phase starts. The sender submits each request at its due time whatever
// the server is doing, and every request is timed from when it was *due*,
// so a stalled sender or server charges the wait to every request it
// delayed. A refused, failed, expired or unanswered request counts as a
// miss: its latency is +infinity, which places it above any percentile
// limit. The sender also reports how late it ran.
//
// Closed loop: keeps a fixed number of requests in flight and replaces each
// one as it completes, which measures the server's saturation throughput.
//
// Both check every answer against the offline engine's logits for the same
// input and tier, and that every accepted request is answered exactly once.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"
#include "serve/server.hpp"

namespace perfbench {

/// [s][i]: offline engine logits of pool input i on session s.
using ExpectedLogits = std::vector<std::vector<deepcam::nn::Tensor>>;

/// What the generators send: requests pick a session and a pool input.
struct ServeTarget {
  std::vector<std::string> sessions;
  /// Distinct inputs; requests reuse them so answers can be checked.
  const std::vector<deepcam::nn::Tensor>* pool = nullptr;
  /// Shared with the callbacks, which may still run after a phase that
  /// gave up waiting for them has returned.
  std::shared_ptr<const ExpectedLogits> expected;
};

/// Outcome of one open-loop phase at a fixed offered rate.
struct OpenLoopResult {
  std::size_t attempted = 0;
  std::size_t refused = 0;          // Server::submit did not accept
  std::size_t failed = 0;           // answered with an error or expiry
  std::size_t wrong = 0;            // answered with logits != offline engine
  std::size_t unanswered = 0;       // accepted but never answered
  std::size_t answered_twice = 0;   // on_done fired more than once
  /// Accepted requests still unanswered when the last request was sent.
  std::size_t backlog_at_end = 0;
  // Per attempted request, in schedule order:
  std::vector<double> due_s;        // scheduled send time from phase start
  std::vector<double> latency_ms;   // due -> answer; +inf for a miss
  std::vector<double> late_ms;      // actual send - due
  std::vector<double> submit_us;    // duration of Server::submit
  // Per successfully answered request (from its Response):
  std::vector<double> queue_ms;     // enqueue -> micro-batch dispatch
  std::vector<double> service_ms;   // dispatch -> completion
  std::vector<double> batch_size;   // micro-batch it rode in

  std::size_t misses() const {
    return refused + failed + wrong + unanswered;
  }
};

/// Sends Poisson arrivals at `rate` for `seconds` (schedule from `seed`)
/// and waits until every accepted request is answered (or 60 s pass,
/// counting the rest unanswered).
OpenLoopResult run_open_loop(deepcam::serve::Server& server,
                             const ServeTarget& target, double rate,
                             double seconds, std::uint64_t seed);

/// Outcome of one closed-loop phase.
struct ClosedLoopResult {
  /// Completions per second between the first and the last completion
  /// counted (those after the first 10% of the phase).
  double samples_per_s = 0.0;
  /// The same within each window of about 0.5 s of the counted time.
  std::vector<double> window_sps;
  std::size_t attempted = 0;
  std::size_t misses = 0;      // refused, failed, wrong or unanswered
};

/// Keeps `window` requests in flight for `seconds`.
ClosedLoopResult run_closed_loop(deepcam::serve::Server& server,
                                 const ServeTarget& target,
                                 std::size_t window, double seconds,
                                 std::uint64_t seed);

}  // namespace perfbench
