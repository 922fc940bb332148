#include "common/fault.h"

#include <unistd.h>

#include <charconv>
#include <chrono>
#include <thread>

namespace dpe::common {

namespace {

// Parses a run of decimal digits that an int can hold into `out`; false for
// an empty run, a sign, any other character and a value past INT_MAX.
bool ParseCount(std::string_view digits, int* out) {
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, *out);
  return !digits.empty() && digits.front() != '-' && ec == std::errc() &&
         ptr == end;
}

// Parses "point=action[:ms][@n]" into `out`. Returns false with *error on
// any defect; never partially fills.
bool ParseEntry(std::string_view entry, FaultInjector::Fault* out,
                std::string* error) {
  const size_t eq = entry.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    if (error != nullptr) {
      *error = "fault spec entry '" + std::string(entry) +
               "' is not point=action";
    }
    return false;
  }
  std::string_view point = entry.substr(0, eq);
  std::string_view action = entry.substr(eq + 1);

  FaultInjector::Fault fault;
  // '@n' suffix on the action selects the n-th hit.
  if (const size_t at = action.rfind('@'); at != std::string_view::npos) {
    int n = 0;
    if (!ParseCount(action.substr(at + 1), &n) || n < 1) {
      if (error != nullptr) {
        *error = "fault spec '@' wants a positive hit count in '" +
                 std::string(entry) + "'";
      }
      return false;
    }
    fault.at_hit = n;
    action = action.substr(0, at);
  }
  // Optional ':ms' parameter.
  int ms = -1;
  if (const size_t colon = action.find(':'); colon != std::string_view::npos) {
    if (!ParseCount(action.substr(colon + 1), &ms)) {
      if (error != nullptr) {
        *error = "fault spec ':' wants a millisecond count in '" +
                 std::string(entry) + "'";
      }
      return false;
    }
    action = action.substr(0, colon);
  }

  if (action == "die") {
    fault.action = FaultInjector::Action::kDie;
  } else if (action == "wedge") {
    fault.action = FaultInjector::Action::kWedge;
    fault.delay_ms = ms < 0 ? 0 : ms;  // 0 = wedge forever
  } else if (action == "sleep") {
    if (ms < 0) {
      if (error != nullptr) {
        *error = "fault spec 'sleep' wants sleep:ms in '" +
                 std::string(entry) + "'";
      }
      return false;
    }
    fault.action = FaultInjector::Action::kSleep;
    fault.delay_ms = ms;
  } else {
    if (error != nullptr) {
      *error = "fault spec action '" + std::string(action) +
               "' is not die|wedge|sleep";
    }
    return false;
  }
  fault.point = std::string(point);
  *out = fault;
  return true;
}

}  // namespace

bool FaultInjector::Arm(std::string_view spec, std::string* error) {
  std::vector<Fault> parsed;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find(';', start);
    if (end == std::string_view::npos) end = spec.size();
    std::string_view entry = spec.substr(start, end - start);
    if (!entry.empty()) {
      Fault fault;
      if (!ParseEntry(entry, &fault, error)) return false;
      parsed.push_back(std::move(fault));
    }
    start = end + 1;
  }
  MutexLock lock(mu_);
  points_.clear();
  for (Fault& fault : parsed) {
    points_[fault.point].entries.push_back(std::move(fault));
  }
  any_armed_ = !points_.empty();
  return true;
}

void FaultInjector::Arm(Fault fault) {
  MutexLock lock(mu_);
  points_[fault.point].entries.push_back(std::move(fault));
  any_armed_ = true;
}

void FaultInjector::Clear() {
  MutexLock lock(mu_);
  points_.clear();
  any_armed_ = false;
}

void FaultInjector::Fire(std::string_view point) {
  Fault to_perform;
  bool perform = false;
  {
    MutexLock lock(mu_);
    if (!any_armed_) {
      // Fast path: still count hits only for points someone armed or asked
      // about before — an unarmed injector must cost near nothing. A fully
      // disarmed injector does not track hit counts.
      return;
    }
    PointState& state = points_[std::string(point)];
    ++state.hits;
    for (auto it = state.entries.begin(); it != state.entries.end(); ++it) {
      if (state.hits == static_cast<uint64_t>(it->at_hit)) {
        to_perform = *it;
        state.entries.erase(it);  // each armed entry fires at most once
        perform = true;
        break;
      }
    }
  }
  if (perform) Perform(to_perform);
}

uint64_t FaultInjector::hits(std::string_view point) const {
  MutexLock lock(mu_);
  const auto it = points_.find(std::string(point));
  return it == points_.end() ? 0 : it->second.hits;
}

bool FaultInjector::armed() const {
  MutexLock lock(mu_);
  for (const auto& [point, state] : points_) {
    if (!state.entries.empty()) return true;
  }
  return false;
}

void FaultInjector::Perform(const Fault& fault) {
  switch (fault.action) {
    case Action::kDie:
      // No flushes, no atexit: the closest in-process stand-in for SIGKILL.
      _exit(137);
    case Action::kWedge: {
      // Wedge = alive but useless: the process keeps its locks/leases and
      // never heartbeats again. A cap (delay_ms > 0) keeps CI from hanging
      // if the harness forgets to SIGKILL the wedged worker.
      const auto started = std::chrono::steady_clock::now();
      for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (fault.delay_ms > 0 &&
            std::chrono::steady_clock::now() - started >=
                std::chrono::milliseconds(fault.delay_ms)) {
          return;
        }
      }
    }
    case Action::kSleep:
      std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
      return;
  }
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

}  // namespace dpe::common
