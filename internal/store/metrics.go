package store

import (
	"time"

	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// WithMetrics wraps a Service so every call is timed into a per-operation
// latency histogram (oblivfd_store_op_seconds{op=...}), errors are counted
// (oblivfd_store_op_errors_total{op=...}), and ciphertext payload volume
// is accumulated (oblivfd_store_bytes_{read,written}_total). A fused Batch
// is timed as one operation and its payload attributed to the read/write
// totals per inner op; a namespaced Checkpoint or Stats is timed as a
// Checkpoint or Stats. A nil registry returns svc unchanged — the
// zero-telemetry path has no wrapper at all.
//
// Leakage note: everything observed here (operation kind, latency, payload
// size) is already visible to the server and the persistent adversary; see
// DESIGN.md §9.
func WithMetrics(svc Service, reg *telemetry.Registry) Service {
	if reg == nil {
		return svc
	}
	// Handles are pre-created so the hot path never touches the registry map.
	var lat [NumKinds]*telemetry.Histogram
	var errs [NumKinds]*telemetry.Counter
	for k, info := range kinds {
		if info.service {
			lat[k] = reg.Histogram("oblivfd_store_op_seconds", "op", info.name)
			errs[k] = reg.Counter("oblivfd_store_op_errors_total", "op", info.name)
		}
	}
	bytesRead := reg.Counter("oblivfd_store_bytes_read_total")
	bytesWritten := reg.Counter("oblivfd_store_bytes_written_total")
	return Adapt(func(op *Op, res *Result) error {
		if !op.Kind.info().service {
			return Invoke(svc, op, res) // which refuses it
		}
		t0 := time.Now()
		err := Invoke(svc, op, res)
		lat[op.Kind].ObserveSince(t0)
		if err != nil {
			errs[op.Kind].Inc()
			return err
		}
		// Only reads return ciphertexts and only writes carry them.
		read, written := payloadBytes(res.Cts), payloadBytes(op.Cts)
		for i, b := range op.Ops {
			written += payloadBytes(b.Cts)
			if i < len(res.Batch) {
				read += payloadBytes(res.Batch[i])
			}
		}
		bytesRead.Add(read)
		bytesWritten.Add(written)
		return nil
	})
}

func payloadBytes(cts [][]byte) int64 {
	var n int64
	for _, ct := range cts {
		n += int64(len(ct))
	}
	return n
}
