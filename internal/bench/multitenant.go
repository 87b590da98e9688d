package bench

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/oblivfd/oblivfd/internal/core"
	"github.com/oblivfd/oblivfd/internal/dataset"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
	"github.com/oblivfd/oblivfd/internal/transport"
)

// The multitenant experiment measures graceful degradation under load: N
// concurrent clients, spread over M database namespaces, each run a full
// Sort discovery against one session-scoped fdserver with a fixed global
// in-flight budget. As the client count grows past the budget the server
// sheds (retryable ErrOverloaded) instead of queueing without bound; the
// clients ride the shedding out with store.WithRetry. Reported per point:
// aggregate discovery throughput, the worst per-tenant server-side p99 RPC
// latency, and the shed rate. fdbench writes the result to
// BENCH_multitenant.json so later changes compare against a committed
// artifact.

// MultiTenantPoint is one (clients, databases) configuration's outcome.
type MultiTenantPoint struct {
	Clients   int   `json:"clients"`
	Databases int   `json:"databases"`
	WallNS    int64 `json:"wall_ns"`
	// Requests counts every non-handshake RPC the server answered,
	// including shed ones; Shed is the subset refused by admission control.
	Requests int64   `json:"requests"`
	Shed     int64   `json:"shed"`
	ShedRate float64 `json:"shed_rate"`
	// ThroughputRPS is admitted (executed) requests per second of wall time.
	ThroughputRPS float64 `json:"throughput_rps"`
	// P99NS is the worst per-tenant server-side p99 RPC latency.
	P99NS int64 `json:"p99_ns"`
	// DiscoveriesPerSec is completed full discoveries per second.
	DiscoveriesPerSec float64 `json:"discoveries_per_sec"`
}

// MultiTenantResult is the full experiment outcome.
type MultiTenantResult struct {
	N           int                `json:"n"`
	M           int                `json:"m"`
	Seed        int64              `json:"seed"`
	MaxInflight int                `json:"max_inflight"`
	Points      []MultiTenantPoint `json:"points"`
}

// MultiTenant sweeps concurrent client counts over a fixed number of
// database namespaces against one admission-controlled TCP server. Every
// client must finish its discovery — shedding slows tenants down, it never
// fails them.
func MultiTenant(n, m int, clientsList []int, databases, maxInflight int, seed int64) (*MultiTenantResult, error) {
	res := &MultiTenantResult{N: n, M: m, Seed: seed, MaxInflight: maxInflight}
	for _, clients := range clientsList {
		p, err := multiTenantPoint(n, m, clients, databases, maxInflight, seed)
		if err != nil {
			return nil, fmt.Errorf("bench: multitenant clients=%d: %w", clients, err)
		}
		res.Points = append(res.Points, *p)
	}
	return res, nil
}

// multiTenantOpLatency is the modeled per-operation storage latency. Without
// it an in-memory backend answers in microseconds and requests never overlap
// enough to hit any realistic in-flight budget; with it, concurrency at the
// server is the real quantity admission control meters.
const multiTenantOpLatency = 200 * time.Microsecond

func multiTenantPoint(n, m, clients, databases, maxInflight int, seed int64) (*MultiTenantPoint, error) {
	reg := telemetry.New()
	srv := transport.NewServer(store.WithLatency(store.NewServer(), multiTenantOpLatency))
	srv.SetSessionLimits(store.SessionLimits{MaxInflight: maxInflight})
	srv.SetMetrics(reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	go func() { _ = srv.Serve(l) }()
	addr := l.Addr().String()

	var wg sync.WaitGroup
	errs := make([]error, clients)
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = multiTenantClient(addr, fmt.Sprintf("t%d", i%databases), n, m, seed+int64(i))
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	point := &MultiTenantPoint{
		Clients:   clients,
		Databases: databases,
		WallNS:    wall.Nanoseconds(),
		Shed:      srv.Sessions().Shed(),
	}
	for db := 0; db < databases; db++ {
		snap := reg.Histogram("oblivfd_tenant_rpc_seconds", "db", fmt.Sprintf("t%d", db)).Snapshot()
		point.Requests += snap.Count
		if p99 := snap.P99.Nanoseconds(); p99 > point.P99NS {
			point.P99NS = p99
		}
	}
	if point.Requests > 0 {
		point.ShedRate = float64(point.Shed) / float64(point.Requests)
	}
	secs := wall.Seconds()
	if secs > 0 {
		point.ThroughputRPS = float64(point.Requests-point.Shed) / secs
		point.DiscoveriesPerSec = float64(clients) / secs
	}
	return point, nil
}

// multiTenantClient runs one tenant's full Sort discovery over its own
// session pool, retrying shed requests with backoff.
func multiTenantClient(addr, db string, n, m int, seed int64) error {
	cfg := transport.DefaultClientConfig()
	cfg.CallTimeout = 30 * time.Second
	cfg.Database = db
	pool, err := transport.DialPoolWith(addr, 2, cfg)
	if err != nil {
		return err
	}
	defer pool.Close()
	svc := store.WithRetry(pool, store.RetryPolicy{
		MaxAttempts:    50,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		Seed:           seed,
	})
	rel := dataset.RND(m, n, seed)
	s, err := newSetupOn(svc, rel, core.ProtocolSort, 2, 0)
	if err != nil {
		return err
	}
	defer s.close()
	_, err = core.Discover(s.eng, m, &core.Options{MaxLHS: 2})
	return err
}

// Render prints the client sweep.
func (r *MultiTenantResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-tenant: Sort discovery, RND m=%d n=%d, %d-deep global in-flight budget\n",
		r.M, r.N, r.MaxInflight)
	fmt.Fprintf(&b, "%8s %4s %10s %12s %10s %10s %10s\n",
		"clients", "dbs", "wall", "admitted/s", "p99", "shed", "shed-rate")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8d %4d %10s %12.0f %10s %10d %9.1f%%\n",
			p.Clients, p.Databases, fmtDur(time.Duration(p.WallNS)), p.ThroughputRPS,
			fmtDur(time.Duration(p.P99NS)), p.Shed, 100*p.ShedRate)
	}
	b.WriteString("Expected shape: shed rate grows with clients past the budget; every discovery still completes.\n")
	return b.String()
}

// WriteFile writes the JSON artifact (BENCH_multitenant.json).
func (r *MultiTenantResult) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
