// Prometheus text-exposition (version 0.0.4) export for MetricsSnapshot.
//
//   * counters / gauges map 1:1 (`# TYPE` + one sample per label set),
//   * exact TailHistograms export as prometheus `summary`
//     (`{quantile="0.99"}` series + `_sum` + `_count`) — quantiles are
//     exact-within-bucket, which is precisely what summary semantics want.
//
// Metric names are sanitized to [a-zA-Z_:][a-zA-Z0-9_:]* (dots become
// underscores), label values are escaped, and non-finite sample values are
// written with the exposition-format literals NaN / +Inf / -Inf.
//
// prom_lint() is a self-check used by tests and the ctest gate: it parses
// an exposition document line-by-line and rejects malformed names, label
// syntax errors, unparsable values, duplicate or misplaced `# TYPE` lines.
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace drlhmd::obs {

/// Sanitize a metric or label name for the exposition format.
std::string prom_name(std::string_view raw);

/// Render the snapshot as one exposition-format document.
std::string to_prometheus(const MetricsSnapshot& snapshot);

/// True when `text` is a well-formed exposition document.  On failure,
/// `*error` (when non-null) receives "line N: reason".
bool prom_lint(std::string_view text, std::string* error = nullptr);

}  // namespace drlhmd::obs
