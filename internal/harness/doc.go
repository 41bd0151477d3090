// Package harness assembles the three high-latency architectures of §3
// on loopback TCP — edge servers sharing a remote database (ES/RDB),
// edge servers sharing a remote back-end server (ES/RBES), and clients
// talking to a remote application server (Clients/RAS) — with the delay
// proxy interposed on the architecture's high-latency path, and runs the
// paper's experiments against them.
//
// Paper mapping: RunSweep measures one latency curve of Figures 6–7
// (mean client-interaction latency vs one-way delay); Sweep.Sensitivity
// is the fitted slope of Table 2; Fig8Rows reports the shared-path
// bytes per interaction of Figure 8; WriteTable1 derives Table 1 from
// the implementation itself. Every experiment measures through
// Topology.Measure, whose Pass holds the load result, the shared-path
// traffic, a diff of the process-wide obs registry and the forensic
// events of one window, so Pass.Spans decomposes the measured latency
// into per-hop trace-span histograms (WriteLatencyBreakdown; see
// OBSERVABILITY.md).
package harness
