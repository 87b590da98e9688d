package oblivfd

// Multi-tenant acceptance tests: N concurrent clients spread over M database
// namespaces on one fdserver, under the chaos fault mix, must each produce
// exactly the oracle's FD set of their own relation — and an overloaded
// server must shed with the retryable error instead of ever returning a wrong
// answer. Run with -race: the session registry, namespacing, and per-tenant
// marks are exactly the shared state these clients contend on.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/transport"
	"github.com/oblivfd/oblivfd/securefd"
)

// tenantClients is the concurrency of the acceptance scenario: 4 clients
// across 2 database namespaces.
const (
	tenantClients   = 4
	tenantDatabases = 2
)

// tenants runs tenantClients concurrent discoveries against addr, client i
// in namespace tenant-(i mod tenantDatabases) through a retrying pool with
// the given budget, and requires each to end in the oracle's FD set of its
// own relation rel(i) — distinct relations, so a cross-tenant mixup cannot
// accidentally produce the right answer.
func tenants(t *testing.T, addr string, attempts int, rel func(i int) *securefd.Relation) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < tenantClients; i++ {
		svc := dialPool(t, addr, 2, fmt.Sprintf("tenant-%d", i%tenantDatabases), attempts)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scenario{rel: rel(i), opts: sortOpts}.run(t, svc)
		}(i)
	}
	wg.Wait()
}

// TestMultiTenantChaosDiscovery: 4 concurrent clients over 2 namespaces,
// under the 3% chaos fault mix, each complete and match their own oracle —
// no cross-tenant interference, no corruption.
func TestMultiTenantChaosDiscovery(t *testing.T) {
	faulty, e := serveChaos(t, 4242)
	tenants(t, e.addr, 10, func(i int) *securefd.Relation { return securefd.GenerateRND(5, 32, int64(21+7*i)) })
	st, err := faulty.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.FaultsInjected == 0 {
		t.Error("chaos run injected no faults; rates too low to prove anything")
	}
	t.Logf("multi-tenant chaos: %d clients over %d namespaces, %d faults injected",
		tenantClients, tenantDatabases, st.FaultsInjected)
}

// TestMultiTenantOverloadSheds: a server with a tight global in-flight
// budget sheds aggressively, yet every retrying client still finishes with
// the oracle's FDs — graceful degradation, never wrong answers.
func TestMultiTenantOverloadSheds(t *testing.T) {
	// No storage faults here: isolate the shedding path. MaxInflight 2
	// against 4 clients × pool 2 guarantees contention; the per-op latency
	// keeps requests in flight long enough to actually overlap. A generous
	// retry budget: shed-and-retry is the expected steady state under
	// overload, not an exceptional path.
	e := serveTCP(t, store.WithLatency(store.NewServer(), 200*time.Microsecond),
		serving{limits: store.SessionLimits{MaxInflight: 2}})
	tenants(t, e.addr, 50, func(i int) *securefd.Relation { return securefd.GenerateRND(4, 24, int64(5+3*i)) })
	if shed := e.ts.Sessions().Shed(); shed == 0 {
		t.Error("overload run shed nothing; MaxInflight never bit")
	} else {
		t.Logf("overload run: %d requests shed and retried", shed)
	}
}

// TestMultiTenantOverloadTypedError: shed work surfaces to a non-retrying
// client as the typed, retryable store.ErrOverloaded — never as a silent
// failure or a wrong result. A per-session rate limit of one request a
// second (a bucket one deep) makes the second back-to-back call shed
// deterministically.
func TestMultiTenantOverloadTypedError(t *testing.T) {
	e := serveTCP(t, store.NewServer(), serving{limits: store.SessionLimits{RatePerSec: 1}})
	c, err := transport.DialWith(e.addr, transport.ClientConfig{CallTimeout: 10 * time.Second, DialTimeout: 2 * time.Second, Database: "tenant-0"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateArray("arr", 1); err != nil {
		t.Fatalf("first call within burst: %v", err)
	}
	_, err = c.ArrayLen("arr")
	if !errors.Is(err, store.ErrOverloaded) {
		t.Fatalf("second call: err = %v, want store.ErrOverloaded", err)
	}
	// And it is exactly the class WithRetry would ride out.
	if !store.DefaultRetryable(err) {
		t.Errorf("shed error not classified retryable: %v", err)
	}
}
