// Package latency provides the experiment plumbing the paper calls the
// "delay proxy" (§4.1): a TCP proxy that interposes a configurable
// one-way delay on a designated communication path, transparently to
// both endpoints, plus byte-counting connection wrappers used to measure
// the bandwidth consumed on the shared (high-latency) path (Figure 8).
//
// Beyond the paper, the proxy can inject WAN faults on the same path —
// abrupt connection resets, stalls and partial-frame truncations — which
// the fault-tolerance experiments use to verify the edge keeps serving
// under disconnection. Injected faults are counted by the proxy's
// FaultStats.
package latency
