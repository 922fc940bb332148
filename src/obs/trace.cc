#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "obs/json.h"

namespace dpe::obs {

namespace {

/// Per-thread span nesting depth. Tracks *recording* spans only, so a
/// disabled buffer leaves no thread-local residue.
thread_local uint32_t t_depth = 0;

/// Per-thread ambient buffer (see ScopedAmbientTrace).
thread_local TraceBuffer* t_ambient = nullptr;

std::chrono::steady_clock::time_point ProcessEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

uint64_t TraceNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() -
                                   ProcessEpoch())
                                   .count());
}

// -- TraceBuffer -------------------------------------------------------------

void TraceBuffer::Record(std::string name, uint64_t start_ns, uint64_t dur_ns,
                         uint32_t depth) {
  MutexLock lock(mu_);
  const auto [it, inserted] =
      tids_.emplace(std::this_thread::get_id(),
                    static_cast<uint32_t>(tids_.size()));
  events_.push_back(TraceEvent{std::move(name), it->second, depth, start_ns,
                               dur_ns});
}

std::vector<TraceEvent> TraceBuffer::Events() const {
  MutexLock lock(mu_);
  return events_;
}

size_t TraceBuffer::size() const {
  MutexLock lock(mu_);
  return events_.size();
}

void TraceBuffer::Clear() {
  MutexLock lock(mu_);
  events_.clear();
  tids_.clear();
}

std::string TraceBuffer::ToChromeJson() const {
  // Snapshot under the buffer mutex, then serialize the copy: spans
  // completing concurrently (a /trace scrape mid-build) can only land in a
  // later export, never tear this one. Serialization itself must stay
  // outside the lock or a big buffer would stall every span completion.
  std::vector<TraceEvent> events;
  {
    MutexLock lock(mu_);
    events = events_;
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;  // parents before children
            });
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[128];
  for (size_t e = 0; e < events.size(); ++e) {
    const TraceEvent& ev = events[e];
    out.append(e == 0 ? "\n {\"name\":" : ",\n {\"name\":");
    out.append(JsonQuoted(ev.name));
    std::snprintf(buf, sizeof(buf),
                  ",\"cat\":\"dpe\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%u}}",
                  ev.tid, static_cast<double>(ev.start_ns) / 1000.0,
                  static_cast<double>(ev.dur_ns) / 1000.0, ev.depth);
    out.append(buf);
  }
  out.append("\n]}\n");
  return out;
}

// -- Ambient buffer ----------------------------------------------------------

TraceBuffer* AmbientTraceBuffer() { return t_ambient; }

ScopedAmbientTrace::ScopedAmbientTrace(TraceBuffer* buffer)
    : previous_(t_ambient) {
  t_ambient = buffer;
}

ScopedAmbientTrace::~ScopedAmbientTrace() { t_ambient = previous_; }

// -- TraceSpan ---------------------------------------------------------------

TraceSpan::TraceSpan(std::string_view name, TraceBuffer* buffer,
                     Histogram* latency_ms)
    : name_(name),
      buffer_(buffer),
      latency_ms_(latency_ms),
      recording_(buffer != nullptr && buffer->enabled()),
      start_ns_(TraceNowNs()) {
  if (recording_) ++t_depth;
}

void TraceSpan::End() {
  if (ended_) return;
  ended_ = true;
  dur_ns_ = TraceNowNs() - start_ns_;
  if (latency_ms_ != nullptr) {
    latency_ms_->Observe(static_cast<double>(dur_ns_) / 1e6);
  }
  if (recording_) {
    --t_depth;
    buffer_->Record(std::move(name_), start_ns_, dur_ns_, t_depth);
  }
}

double TraceSpan::elapsed_ms() const {
  const uint64_t dur = ended_ ? dur_ns_ : TraceNowNs() - start_ns_;
  return static_cast<double>(dur) / 1e6;
}

}  // namespace dpe::obs
