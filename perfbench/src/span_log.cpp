#include "span_log.hpp"

#include <algorithm>
#include <fstream>
#include <numeric>

#include "common/error.hpp"

namespace perfbench {

std::vector<std::uint64_t> SpanLog::self_times_ns() const {
  const std::size_t n = spans_.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Parents sort before the children they enclose: by sample, then start,
  // then depth (a child may start on the same nanosecond as its parent).
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const SpanRec& x = spans_[a];
    const SpanRec& y = spans_[b];
    if (x.sample != y.sample) return x.sample < y.sample;
    if (x.t0_ns != y.t0_ns) return x.t0_ns < y.t0_ns;
    return x.depth < y.depth;
  });

  std::vector<std::uint64_t> self(n);
  std::vector<std::uint64_t> covered_to(n, 0);  // children union frontier
  std::vector<std::size_t> stack;
  for (std::size_t idx : order) {
    const SpanRec& s = spans_[idx];
    self[idx] = s.duration_ns();
    while (!stack.empty()) {
      const SpanRec& top = spans_[stack.back()];
      if (top.sample == s.sample && top.depth < s.depth &&
          s.t0_ns < top.t1_ns)
        break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      const std::size_t p = stack.back();
      const SpanRec& parent = spans_[p];
      // Subtract only the part of the child inside the parent that no
      // earlier child already covered.
      const std::uint64_t lo = std::max(s.t0_ns, covered_to[p]);
      const std::uint64_t hi = std::min(s.t1_ns, parent.t1_ns);
      if (hi > lo) {
        self[p] -= std::min(self[p], hi - lo);
        covered_to[p] = hi;
      }
    }
    stack.push_back(idx);
  }
  return self;
}

double SpanLog::empty_span_ns() {
  constexpr std::size_t kSpans = 2001;
  SpanLog scratch;
  scratch.spans_.reserve(kSpans);
  for (std::size_t i = 0; i < kSpans; ++i) ScopedSpan sp(&scratch, "", 0, 0, 0);
  std::vector<std::uint64_t> d;
  for (const SpanRec& s : scratch.spans_) d.push_back(s.duration_ns());
  std::nth_element(d.begin(), d.begin() + kSpans / 2, d.end());
  return static_cast<double>(d[kSpans / 2]);
}

void SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path);
  DEEPCAM_CHECK_MSG(out.good(), "cannot write " + path);
  const std::vector<std::uint64_t> self = self_times_ns();
  std::uint64_t origin = ~std::uint64_t{0};
  for (const SpanRec& s : spans_) origin = std::min(origin, s.t0_ns);
  out << "name,sample,layer,depth,calls,t0_ns,t1_ns,self_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    out << s.name << ',' << s.sample << ',';
    if (s.layer != kNoLayer) out << s.layer;
    out << ',' << s.depth << ',' << s.calls << ',' << (s.t0_ns - origin)
        << ',' << (s.t1_ns - origin) << ',' << self[i] << '\n';
  }
  DEEPCAM_CHECK_MSG(out.good(), "short write to " + path);
}

}  // namespace perfbench
