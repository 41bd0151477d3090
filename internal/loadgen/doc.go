// Package loadgen drives the Trade workload against an application
// server the way the paper's load-generation program does (§4): virtual
// clients running complete sessions, a warmup before measurement, and
// batched latency means (the paper's 20 batches, for the confidence
// intervals of §4.3). Run is the one driver. One client is the paper's
// "low-load situation so as to factor out queuing delay effects"
// (§4.3); several put the queuing back, for throughput and contention.
// A warmup is a Run whose result is discarded.
//
// Every run follows one failure rule: a step that errors, times out or
// answers !OK ends its session, the session is retried a bounded number
// of times, and only steps that succeeded are measured.
//
// The load generator is also the system's trace source: every
// interaction runs under a fresh trace ID and a "client.interaction"
// span, so its journey through the tiers reconstructs as one span tree
// (see OBSERVABILITY.md).
package loadgen
