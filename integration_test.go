package oblivfd

// Integration tests across module boundaries: dataset generation → CSV →
// encrypted outsourcing over real TCP → discovery → dynamic maintenance →
// server snapshot/restore. These are the flows a downstream user wires
// together; unit tests in internal/ cover each piece in isolation.

import (
	"bytes"
	"testing"

	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/securefd"
)

// TestEndToEndCSVOverTCP: generate a dataset, round-trip it through CSV,
// outsource over TCP, and check the discovered FDs against the oracle.
func TestEndToEndCSVOverTCP(t *testing.T) {
	rel, err := securefd.GenerateDataset("flight", 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := securefd.WriteCSV(&buf, rel); err != nil {
		t.Fatal(err)
	}
	loaded, err := securefd.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}

	svc, err := securefd.DialTCP(serveTCP(t, store.NewServer(), serving{}).addr)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// flight has 20 attributes; keep the lattice shallow.
	scenario{rel: loaded, opts: securefd.Options{Protocol: securefd.ProtocolSort, Workers: 2, MaxLHS: 1}}.run(t, svc)
}

// TestDynamicLifecycleOverTCP: the full dynamic protocol against a remote
// server — discovery, violating insert, revalidation, rollback.
func TestDynamicLifecycleOverTCP(t *testing.T) {
	backend := store.NewServer()
	svc, err := securefd.DialTCP(serveTCP(t, backend, serving{}).addr)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	dynamicLifecycle(t, svc)

	// The server held only ciphertexts: scan every stored byte sequence
	// for plaintext cell values.
	var snap bytes.Buffer
	if err := backend.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	for _, secret := range []string{"Engineer", "R&D", "Support"} {
		if bytes.Contains(snap.Bytes(), []byte(secret)) {
			t.Errorf("plaintext %q found in server storage", secret)
		}
	}
}

// TestSnapshotPreservesProtocolState: ORAM trees survive a server
// save/restore cycle and the client can keep using them (the client holds
// its own position map and stash, so a server restart is transparent).
func TestSnapshotPreservesProtocolState(t *testing.T) {
	rel, err := securefd.GenerateDataset("letter", 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	server := securefd.NewServer()
	db, err := securefd.Outsource(server, rel, securefd.Options{
		Protocol:       securefd.ProtocolDynamicORAM,
		InsertHeadroom: 4,
		MaxLHS:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Discover(); err != nil {
		t.Fatal(err)
	}

	// Snapshot and restore into the same server (a restart in place).
	var snap bytes.Buffer
	if err := server.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := server.LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	// The dynamic protocol keeps working against the restored state.
	row := make(securefd.Row, rel.NumAttrs())
	for j := range row {
		row[j] = "z"
	}
	id, err := db.Insert(row)
	if err != nil {
		t.Fatalf("Insert after restore: %v", err)
	}
	if err := db.Delete(id); err != nil {
		t.Fatalf("Delete after restore: %v", err)
	}
}

// TestAllProtocolsAgreeOnGeneratedData: every protocol discovers the
// oracle's FDs on each shaped dataset sample.
func TestAllProtocolsAgreeOnGeneratedData(t *testing.T) {
	for _, name := range []string{"adult", "letter"} {
		rel, err := securefd.GenerateDataset(name, 40, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []securefd.Protocol{
			securefd.ProtocolPlaintext, securefd.ProtocolSort,
			securefd.ProtocolORAM, securefd.ProtocolDynamicORAM,
			securefd.ProtocolEnclave,
		} {
			t.Run(name+"/"+p.String(), func(t *testing.T) {
				scenario{rel: rel, opts: securefd.Options{Protocol: p, Workers: 2, MaxLHS: 2}}.run(t, securefd.NewServer())
			})
		}
	}
}
