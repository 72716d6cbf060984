// Trace exporters: the recorded spans in formats other tools read.
//
// chrome_trace_json renders spans as Chrome trace-event JSON ("X"
// complete events), loadable directly in Perfetto / chrome://tracing.
// Timestamps are SIM time in microseconds — the run's own timeline, so a
// scripted network day lays out as a day — with wall-clock duration, span
// ids and attributes carried in "args". tools/trace_report.py consumes
// the same file for per-name latency percentiles.
#pragma once

#include <string>
#include <vector>

#include "src/obs/trace.hpp"

namespace qkd::obs {

/// Serializes spans as {"traceEvents": [...]} Chrome trace JSON. Open
/// spans (sim_end < sim_start) export with zero duration. Track mapping:
/// pid 1, tid = recording cell + 1 (one row per lane).
std::string chrome_trace_json(const std::vector<Span>& spans);

/// chrome_trace_json over everything `tracer` recorded.
std::string chrome_trace_json(const Tracer& tracer);

}  // namespace qkd::obs
