package store

import (
	"time"
)

// WithLatency wraps a Service so every call takes at least rtt longer,
// modeling the client↔server network round trip of the paper's deployment
// (two machines on a 1 Gbps LAN, §VII-A). Concurrent calls are delayed
// independently, so latency — unlike CPU work — is overlappable: this is
// the effect the sorting protocol's parallelism exploits (Fig. 6a), and
// injecting it lets single-machine runs reproduce that behaviour. A whole
// batch pays one delay, which is the point of batching — RTT cost scales
// with rounds, not cells.
func WithLatency(svc Service, rtt time.Duration) Service {
	if rtt <= 0 {
		return svc
	}
	return Adapt(func(op *Op, res *Result) error {
		time.Sleep(rtt)
		return Invoke(svc, op, res)
	})
}
