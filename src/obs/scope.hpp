#pragma once

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mtdgrid::obs {

/// Where the calling thread's observability output goes: work counters
/// into `registry` (the global registry when null) and completed spans
/// into `capture` (dropped when null, unless the global `Tracer` is
/// enabled). `serve::MtdDaemon` scopes requests to its shard registry;
/// `core::ThreadPool` forwards the submitting thread's context to its
/// workers for the duration of a region.
struct ThreadContext {
  MetricsRegistry* registry = nullptr;  ///< counter sink (null = global)
  SpanCapture* capture = nullptr;       ///< span sink (null = none)
};

/// The calling thread's context (mutable; prefer the RAII scopes below).
ThreadContext& thread_context() noexcept;

/// The registry `obs::add` records into on this thread: the scoped
/// registry if one is installed, else `MetricsRegistry::global()`.
inline MetricsRegistry& active_registry() noexcept {
  ThreadContext& ctx = thread_context();
  return ctx.registry != nullptr ? *ctx.registry : MetricsRegistry::global();
}

/// Adds `n` to fixed work counter `w` in the calling thread's active
/// registry — the one-liner hot paths use. Compiles to nothing under
/// MTDGRID_OBS_NOOP (the overhead-gate build).
inline void add(Work w, std::uint64_t n = 1) noexcept {
#ifndef MTDGRID_OBS_NOOP
  active_registry().add(w, n);
#else
  (void)w;
  (void)n;
#endif
}

/// RAII: installs a full `ThreadContext` (registry + capture) on the
/// calling thread, restoring the previous context on destruction.
class ScopedContext {
 public:
  /// Installs `ctx` for the scope's lifetime.
  explicit ScopedContext(ThreadContext ctx) noexcept
#ifndef MTDGRID_OBS_NOOP
      : saved_(thread_context()) {
    thread_context() = ctx;
  }
#else
  {
    (void)ctx;
  }
#endif
  ~ScopedContext() {
#ifndef MTDGRID_OBS_NOOP
    thread_context() = saved_;
#endif
  }
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
#ifndef MTDGRID_OBS_NOOP
  ThreadContext saved_;
#endif
};

/// RAII: redirects this thread's work counters to `registry` (keeping
/// the current span capture), restoring on destruction.
class ScopedRegistry {
 public:
  /// Routes `obs::add` on this thread to `registry` for the scope.
  explicit ScopedRegistry(MetricsRegistry* registry) noexcept
#ifndef MTDGRID_OBS_NOOP
      : saved_(thread_context().registry) {
    thread_context().registry = registry;
  }
#else
  {
    (void)registry;
  }
#endif
  ~ScopedRegistry() {
#ifndef MTDGRID_OBS_NOOP
    thread_context().registry = saved_;
#endif
  }
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
#ifndef MTDGRID_OBS_NOOP
  MetricsRegistry* saved_ = nullptr;
#endif
};

/// RAII wall-clock span. Construction costs one thread-local read plus
/// one relaxed load when no sink is active (and nothing at all under
/// MTDGRID_OBS_NOOP); the clock is only read when a `SpanCapture` is
/// scoped in or the global `Tracer` is enabled. `name`/`category` must
/// be string literals (see `TraceEvent`). Spans carry wall-clock
/// durations and therefore never appear in default replies — they flow
/// only to opt-in sinks (`"trace":true` requests, `--trace-out`).
class Span {
 public:
  /// Opens a span; it closes (and records) at scope exit.
  explicit Span(const char* name, const char* category = "engine") noexcept {
#ifndef MTDGRID_OBS_NOOP
    capture_ = thread_context().capture;
    to_tracer_ = Tracer::enabled();
    if (capture_ != nullptr || to_tracer_) {
      name_ = name;
      category_ = category;
      start_us_ = Tracer::now_us();
    }
#else
    (void)name;
    (void)category;
#endif
  }

  ~Span() {
#ifndef MTDGRID_OBS_NOOP
    if (capture_ == nullptr && !to_tracer_) return;
    TraceEvent event;
    event.name = name_;
    event.category = category_;
    event.tid = Tracer::current_tid();
    event.ts_us = start_us_;
    event.dur_us = Tracer::now_us() - start_us_;
    if (capture_ != nullptr) capture_->record(event);
    if (to_tracer_) Tracer::global().record(event);
#endif
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
#ifndef MTDGRID_OBS_NOOP
  SpanCapture* capture_ = nullptr;
  bool to_tracer_ = false;
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  double start_us_ = 0.0;
#endif
};

}  // namespace mtdgrid::obs
