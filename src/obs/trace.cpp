#include "obs/trace.h"

#include <cstdio>
#include <fstream>

#include "util/error.h"
#include "util/strings.h"

namespace cs::obs {

std::atomic<bool> TraceSession::enabled_{false};

TraceSession& session() {
  static TraceSession instance;
  return instance;
}

// ---- ThreadTrack -----------------------------------------------------------

ThreadTrack::~ThreadTrack() {
  Chunk* chunk = head_.next.load(std::memory_order_relaxed);
  while (chunk != nullptr) {
    Chunk* next = chunk->next.load(std::memory_order_relaxed);
    delete chunk;
    chunk = next;
  }
}

void ThreadTrack::append(TraceEvent event) {
  const std::size_t slot = appended_ % kChunkSize;
  if (appended_ != 0 && slot == 0) {
    // The release store of published_ below publishes this link too.
    Chunk* fresh = new Chunk;
    tail_->next.store(fresh, std::memory_order_relaxed);
    tail_ = fresh;
  }
  tail_->events[slot] = std::move(event);
  ++appended_;
  // Publish: readers acquire-load the count, which orders the slot (and
  // chunk-link) writes above before any read of them.
  published_.store(appended_, std::memory_order_release);
}

// ---- TraceSession ----------------------------------------------------------

void TraceSession::enable() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (epoch_fresh_) {
      epoch_.reset();
      epoch_fresh_ = false;
    }
  }
  // Release: the epoch reset (and any prior clear) happens-before
  // recording on threads that observe the flag.
  enabled_.store(true, std::memory_order_release);
}

void TraceSession::disable() {
  enabled_.store(false, std::memory_order_release);
}

void TraceSession::clear() {
  disable();
  std::lock_guard<std::mutex> lock(mutex_);
  generation_.fetch_add(1, std::memory_order_release);
  tracks_.clear();
  epoch_fresh_ = true;
}

ThreadTrack& TraceSession::track() {
  struct Cache {
    std::uint64_t generation = 0;
    ThreadTrack* track = nullptr;
  };
  thread_local Cache cache;
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  if (cache.track != nullptr && cache.generation == generation)
    return *cache.track;
  std::lock_guard<std::mutex> lock(mutex_);
  tracks_.push_back(
      std::make_unique<ThreadTrack>(static_cast<int>(tracks_.size()) + 1));
  cache.track = tracks_.back().get();
  cache.generation = generation;
  return *cache.track;
}

void TraceSession::record_span(
    const char* category, std::string name, double ts_us, double dur_us,
    std::vector<std::pair<std::string, std::string>> args) {
  if (!enabled()) return;
  TraceEvent event;
  event.kind = TraceEvent::Kind::kSpan;
  event.name = std::move(name);
  event.category = category;
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.args = std::move(args);
  track().append(std::move(event));
}

void TraceSession::record_async_span(
    const char* category, std::string name, double ts_us, double dur_us,
    std::int64_t id, std::vector<std::pair<std::string, std::string>> args) {
  if (!enabled()) return;
  TraceEvent event;
  event.kind = TraceEvent::Kind::kAsync;
  event.name = std::move(name);
  event.category = category;
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.value = id;
  event.args = std::move(args);
  track().append(std::move(event));
}

void TraceSession::record_counter(const char* category, std::string name,
                                  std::int64_t value) {
  if (!enabled()) return;
  TraceEvent event;
  event.kind = TraceEvent::Kind::kCounter;
  event.name = std::move(name);
  event.category = category;
  event.ts_us = now_us();
  event.value = value;
  track().append(std::move(event));
}

void TraceSession::set_thread_name(std::string name) {
  track().set_name(std::move(name));
}

std::vector<TraceEvent> TraceSession::snapshot() const {
  std::vector<TraceEvent> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& track : tracks_)
    track->visit([&](const TraceEvent& e) { out.push_back(e); });
  return out;
}

std::vector<std::pair<int, std::vector<TraceEvent>>>
TraceSession::snapshot_by_track() const {
  std::vector<std::pair<int, std::vector<TraceEvent>>> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& track : tracks_) {
    out.emplace_back(track->tid(), std::vector<TraceEvent>{});
    track->visit(
        [&](const TraceEvent& e) { out.back().second.push_back(e); });
  }
  return out;
}

namespace {

void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  out += buf;
}

void append_args(std::string& out,
                 const std::vector<std::pair<std::string, std::string>>& args) {
  out += "{";
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) out += ",";
    first = false;
    util::append_json_string(out, key);
    out += ":";
    util::append_json_string(out, value);
  }
  out += "}";
}

}  // namespace

std::string TraceSession::to_json() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto emit_prefix = [&](const ThreadTrack& track) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"pid\":1,\"tid\":";
    out += std::to_string(track.tid());
    out += ",";
  };
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& track : tracks_) {
    if (!track->name().empty()) {
      emit_prefix(*track);
      out += "\"ph\":\"M\",\"name\":\"thread_name\",\"args\":{\"name\":";
      util::append_json_string(out, track->name());
      out += "}}";
    }
    track->visit([&](const TraceEvent& e) {
      if (e.kind == TraceEvent::Kind::kAsync) {
        // Paired begin/end events; viewers group them by id on an async
        // track, so they may overlap the thread's scoped spans freely.
        const auto emit_half = [&](const char* ph, double ts, bool args) {
          emit_prefix(*track);
          out += "\"ph\":\"";
          out += ph;
          out += "\",\"name\":";
          util::append_json_string(out, e.name);
          out += ",\"cat\":";
          util::append_json_string(out, e.category);
          out += ",\"id\":";
          out += std::to_string(e.value);
          out += ",\"ts\":";
          append_number(out, ts);
          if (args) {
            out += ",\"args\":";
            append_args(out, e.args);
          }
          out += "}";
        };
        emit_half("b", e.ts_us, /*args=*/true);
        emit_half("e", e.ts_us + e.dur_us, /*args=*/false);
        return;
      }
      emit_prefix(*track);
      out += "\"ph\":";
      out += e.kind == TraceEvent::Kind::kSpan ? "\"X\"" : "\"C\"";
      out += ",\"name\":";
      util::append_json_string(out, e.name);
      out += ",\"cat\":";
      util::append_json_string(out, e.category);
      out += ",\"ts\":";
      append_number(out, e.ts_us);
      if (e.kind == TraceEvent::Kind::kSpan) {
        out += ",\"dur\":";
        append_number(out, e.dur_us);
        out += ",\"args\":";
        append_args(out, e.args);
      } else {
        out += ",\"args\":{\"value\":";
        out += std::to_string(e.value);
        out += "}";
      }
      out += "}";
    });
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void TraceSession::write_json(const std::string& path) const {
  std::ofstream out(path);
  CS_REQUIRE(static_cast<bool>(out),
             "cannot open trace output '" + path + "'");
  out << to_json();
  CS_REQUIRE(static_cast<bool>(out),
             "failed writing trace output '" + path + "'");
}

// ---- Span ------------------------------------------------------------------

Span::Span(const char* category, const char* name)
    : active_(TraceSession::enabled()), category_(category), name_(name) {
  if (!active_) return;
  start_us_ = session().now_us();
}

Span::~Span() { end(); }

void Span::arg(const char* key, std::string value) {
  if (!active_) return;
  args_.emplace_back(key, std::move(value));
}

void Span::end() {
  if (!active_) return;
  active_ = false;
  TraceSession& s = session();
  s.record_span(category_, name_, start_us_, s.now_us() - start_us_,
                std::move(args_));
}

}  // namespace cs::obs
