// The telemetry bundle: one MetricRegistry plus one TraceRecorder,
// shared by a VerificationSession and everything it owns.
//
// A session built with .telemetry(...) threads this object through every
// layer: the session's apply() phases record latency histograms and trace
// spans, engines adapt their Stats structs into the registry
// (ExecutionEngine::attach_telemetry), the sharded transport exposes
// its traffic as derived gauges, and WorkerPool lanes report busy
// time.  A null Telemetry pointer means disabled — instrumentation sites
// guard on the pointer, so the disabled cost is a branch per phase and
// verdicts/fingerprints are bit-identical either way
// (tests/test_obs_trace.cpp pins this).
#ifndef LCP_OBS_TELEMETRY_HPP_
#define LCP_OBS_TELEMETRY_HPP_

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lcp::obs {

struct Telemetry {
  MetricRegistry metrics;
  TraceRecorder trace;

  /// The metric snapshot rendered as JSON (the trace exports separately
  /// via trace.to_chrome_json()).
  std::string snapshot_json() const { return metrics.snapshot().to_json(); }
};

/// A span when telemetry is on, an inert handle when it is off.
inline TraceRecorder::Span maybe_span(Telemetry* telemetry,
                                      const char* name) {
  return telemetry != nullptr ? telemetry->trace.span(name)
                              : TraceRecorder::Span();
}

}  // namespace lcp::obs

#endif  // LCP_OBS_TELEMETRY_HPP_
