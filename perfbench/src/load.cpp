#include "load.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "replay.hpp"

namespace perfbench {

namespace {

using deepcam::serve::Admission;
using deepcam::serve::Response;
using SteadyClock = std::chrono::steady_clock;

double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Event {
  double due_s = 0.0;
  std::size_t session = 0;
  std::size_t input = 0;
};

std::vector<Event> poisson_schedule(double rate, double seconds,
                                    std::size_t sessions, std::size_t pool,
                                    std::uint64_t seed) {
  deepcam::Rng rng(seed);
  std::vector<Event> events;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate;
    if (t >= seconds) break;
    Event e;
    e.due_s = t;
    e.session = rng.uniform_index(sessions);
    e.input = rng.uniform_index(pool);
    events.push_back(e);
  }
  return events;
}

/// Answer of one open-loop request, written by its on_done callback before
/// the callback's release increment of the phase's answer counter.
struct Slot {
  std::atomic<std::uint32_t> answers{0};
  double done_s = 0.0;
  bool ok = false;
  bool match = false;
  double queue_s = 0.0;
  double total_s = 0.0;
  std::size_t batch = 0;
};

/// Shared with the callbacks, so it, and the expected logits it holds,
/// outlive any callback still running after the phase returns.
struct OpenLoopState {
  OpenLoopState(std::size_t n, std::shared_ptr<const ExpectedLogits> e)
      : slots(n), expected(std::move(e)) {}
  std::vector<Slot> slots;
  std::atomic<std::size_t> answered{0};
  std::shared_ptr<const ExpectedLogits> expected;
};

}  // namespace

OpenLoopResult run_open_loop(deepcam::serve::Server& server,
                             const ServeTarget& target, double rate,
                             double seconds, std::uint64_t seed) {
  constexpr double kAnswerTimeoutS = 60.0;
  DEEPCAM_CHECK(target.pool != nullptr && !target.pool->empty());
  const std::vector<Event> events = poisson_schedule(
      rate, seconds, target.sessions.size(), target.pool->size(), seed);
  auto state =
      std::make_shared<OpenLoopState>(events.size(), target.expected);

  OpenLoopResult res;
  res.attempted = events.size();
  res.due_s.reserve(events.size());
  res.late_ms.reserve(events.size());
  res.submit_us.reserve(events.size());
  std::vector<bool> accepted(events.size(), false);
  std::size_t n_accepted = 0;

  const SteadyClock::time_point t0 =
      SteadyClock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    const auto due = t0 + std::chrono::duration_cast<SteadyClock::duration>(
                              std::chrono::duration<double>(e.due_s));
    std::this_thread::sleep_until(due);
    deepcam::nn::Tensor input = (*target.pool)[e.input];
    const deepcam::nn::Tensor* expected =
        &(*state->expected)[e.session][e.input];
    Slot* slot = &state->slots[i];
    auto on_done = [state, slot, expected, t0](Response&& r) {
      slot->done_s = seconds_between(t0, SteadyClock::now());
      slot->ok = r.ok() && !r.expired;
      slot->match = slot->ok && bitwise_equal(r.logits, *expected);
      slot->queue_s = r.queue_seconds;
      slot->total_s = r.total_seconds;
      slot->batch = r.batch_size;
      slot->answers.fetch_add(1, std::memory_order_relaxed);
      state->answered.fetch_add(1, std::memory_order_release);
    };
    const SteadyClock::time_point t_send = SteadyClock::now();
    const Admission adm = server.submit(target.sessions[e.session],
                                        std::move(input), std::move(on_done));
    const SteadyClock::time_point t_sent = SteadyClock::now();
    res.due_s.push_back(e.due_s);
    res.late_ms.push_back(seconds_between(due, t_send) * 1e3);
    res.submit_us.push_back(seconds_between(t_send, t_sent) * 1e6);
    if (adm == Admission::kAccepted) {
      accepted[i] = true;
      ++n_accepted;
    } else {
      ++res.refused;
    }
  }
  res.backlog_at_end =
      n_accepted - state->answered.load(std::memory_order_acquire);

  const auto give_up = SteadyClock::now() +
                       std::chrono::duration_cast<SteadyClock::duration>(
                           std::chrono::duration<double>(kAnswerTimeoutS));
  while (state->answered.load(std::memory_order_acquire) < n_accepted &&
         SteadyClock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const bool all_answered =
      state->answered.load(std::memory_order_acquire) >= n_accepted;
  if (all_answered) server.drain();

  res.latency_ms.assign(events.size(),
                        std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!accepted[i]) continue;
    const Slot& s = state->slots[i];
    const std::uint32_t n = s.answers.load(std::memory_order_acquire);
    if (n == 0) {
      ++res.unanswered;
      continue;
    }
    if (n > 1) ++res.answered_twice;
    if (!s.ok) {
      ++res.failed;
    } else if (!s.match) {
      ++res.wrong;
    } else {
      res.latency_ms[i] = (s.done_s - events[i].due_s) * 1e3;
      res.queue_ms.push_back(s.queue_s * 1e3);
      res.service_ms.push_back((s.total_s - s.queue_s) * 1e3);
      res.batch_size.push_back(static_cast<double>(s.batch));
    }
  }
  return res;
}

namespace {

struct ClosedLoopState {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t in_flight = 0;            // guarded by mu
  /// Per counted window: completions and the first and last completion
  /// time (s from the start of counting). Guarded by mu.
  struct Window {
    std::size_t completed = 0;
    double first_s = 0.0;
    double last_s = 0.0;
  };
  std::vector<Window> windows;
  std::size_t misses = 0;               // guarded by mu
};

}  // namespace

ClosedLoopResult run_closed_loop(deepcam::serve::Server& server,
                                 const ServeTarget& target,
                                 std::size_t window, double seconds,
                                 std::uint64_t seed) {
  DEEPCAM_CHECK(target.pool != nullptr && !target.pool->empty());
  deepcam::Rng rng(seed);
  auto state = std::make_shared<ClosedLoopState>();
  const SteadyClock::time_point t0 = SteadyClock::now();
  const auto to_dur = [](double s) {
    return std::chrono::duration_cast<SteadyClock::duration>(
        std::chrono::duration<double>(s));
  };
  const SteadyClock::time_point count_from = t0 + to_dur(0.1 * seconds);
  const SteadyClock::time_point end = t0 + to_dur(seconds);
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(0.9 * seconds / 0.5));
  const double window_s = 0.9 * seconds / static_cast<double>(windows);
  state->windows.assign(windows, {});

  ClosedLoopResult res;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(state->mu);
      state->cv.wait_until(lk, end,
                           [&] { return state->in_flight < window; });
      if (SteadyClock::now() >= end) break;
      ++state->in_flight;
    }
    const std::size_t s = rng.uniform_index(target.sessions.size());
    const std::size_t i = rng.uniform_index(target.pool->size());
    const deepcam::nn::Tensor* expected = &(*target.expected)[s][i];
    auto on_done = [state, expected, count_from, window_s](Response&& r) {
      const double t = seconds_between(count_from, SteadyClock::now());
      const bool good =
          r.ok() && !r.expired && bitwise_equal(r.logits, *expected);
      std::lock_guard<std::mutex> lk(state->mu);
      --state->in_flight;
      if (!good) ++state->misses;
      if (good && t >= 0.0) {
        const auto w = static_cast<std::size_t>(t / window_s);
        if (w < state->windows.size()) {
          auto& win = state->windows[w];
          if (win.completed++ == 0) win.first_s = t;
          win.last_s = t;
        }
      }
      state->cv.notify_all();
    };
    ++res.attempted;
    if (server.submit(target.sessions[s], (*target.pool)[i],
                      std::move(on_done)) != Admission::kAccepted) {
      std::lock_guard<std::mutex> lk(state->mu);
      --state->in_flight;
      ++state->misses;
    }
  }
  server.drain();
  std::lock_guard<std::mutex> lk(state->mu);
  res.misses = state->misses + state->in_flight;
  // Completions per second between the first and the last completion
  // counted, over all windows and within each.
  std::size_t completed = 0;
  double first_s = 0.0, last_s = 0.0;
  for (const auto& win : state->windows) {
    if (win.completed == 0) continue;
    if (completed == 0) first_s = win.first_s;
    completed += win.completed;
    last_s = win.last_s;
    if (win.completed > 1 && win.last_s > win.first_s)
      res.window_sps.push_back(static_cast<double>(win.completed - 1) /
                               (win.last_s - win.first_s));
  }
  if (completed > 1 && last_s > first_s)
    res.samples_per_s =
        static_cast<double>(completed - 1) / (last_s - first_s);
  return res;
}

}  // namespace perfbench
