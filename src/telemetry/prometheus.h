// Prometheus text-exposition exporter: serializes a RunTelemetry (phase
// timers, shard utilization, run gauges, log2 length histograms)
// in the Prometheus 0.0.4 text format, one metric family per block with
// HELP/TYPE headers.  Consumable by promtool, a node-exporter textfile
// collector, or any human with eyes.

#ifndef POPPROTO_TELEMETRY_PROMETHEUS_H
#define POPPROTO_TELEMETRY_PROMETHEUS_H

#include <iosfwd>
#include <string>

#include "telemetry/telemetry.h"

namespace popproto::telemetry {

/// Writes the exposition to `out`.  Throws std::runtime_error if the stream
/// is in a failed state afterwards.
void write_prometheus(std::ostream& out, const RunTelemetry& telemetry);

/// Writes the exposition to `path`; throws std::runtime_error (message
/// includes the path) on open or write failure.
void write_prometheus_file(const std::string& path, const RunTelemetry& telemetry);

}  // namespace popproto::telemetry

#endif  // POPPROTO_TELEMETRY_PROMETHEUS_H
