package core

import (
	"fmt"
	"strings"
	"sync/atomic"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// Protocol selects the attribute-level partition method: one of the paper's
// three protocols, or one of the comparators its evaluation runs on the same
// lattice.
type Protocol int

// Available protocols.
const (
	// ProtocolSort is the oblivious-sorting method (§IV-D): static
	// databases, constant client memory, high parallelism.
	ProtocolSort Protocol = iota
	// ProtocolORAM is the original ORAM method (§IV-C): static databases
	// plus insertions.
	ProtocolORAM
	// ProtocolDynamicORAM is the extended ORAM method (§V): insertions
	// and deletions in O(polylog n) per operation.
	ProtocolDynamicORAM
	// ProtocolPlaintext is the insecure baseline (no encryption, no
	// obliviousness); for benchmarking only.
	ProtocolPlaintext
	// ProtocolEnclave simulates running the sorting protocol inside a
	// server-side secure enclave (§VII-D); for benchmarking only.
	ProtocolEnclave
	// ProtocolDeterministic reproduces the security level of the paper's
	// predecessor (Dong & Wang, ICDE 2017): partitions are computed from
	// deterministic per-cell tags stored on the server. It is nearly as
	// fast as plaintext but LEAKS THE FULL FREQUENCY HISTOGRAM of every
	// attribute — a leakage that frequency-analysis attacks turn into
	// plaintext recovery (the repository's TestFrequencyAttack…
	// demonstrates >99% recovery on skewed data). It exists as the
	// insecure comparator the paper's protocols replace. Never use it
	// for sensitive data.
	ProtocolDeterministic
)

// protocols is the one table that maps a protocol to its engine, in
// declaration order: Open builds from it, ResumeEngine rebuilds from it, and
// no other code constructs an engine. An engine is one row.
var protocols = [...]struct {
	name  string // String, ParseProtocol and EngineState.Kind
	paper string // the name the paper's evaluation prints (§VII)
	// encrypted says Open uploads the relation cell-encrypted before open
	// runs; the other engines work on rel in (client or enclave) memory.
	encrypted bool
	open      func(rel *relation.Relation, edb *EncryptedDB, workers int, reg *telemetry.Registry) (Engine, error)
	// resume rebuilds the engine from what CaptureState took; nil where no
	// partition is on the server, deterministic's labels being client-side.
	resume func(edb *EncryptedDB, es *EngineState, reg *telemetry.Registry) (Engine, error)
}{
	ProtocolSort: {name: "sort", paper: "Sort", encrypted: true,
		open: func(_ *relation.Relation, edb *EncryptedDB, workers int, reg *telemetry.Registry) (Engine, error) {
			return asEngine(newSortEngine(edb, workers, reg))
		},
		resume: resumeSortEngine},
	ProtocolORAM: {name: "or-oram", paper: "Or-ORAM", encrypted: true,
		open: func(_ *relation.Relation, edb *EncryptedDB, _ int, reg *telemetry.Registry) (Engine, error) {
			return newOrEngine(edb, reg), nil
		},
		resume: func(edb *EncryptedDB, es *EngineState, reg *telemetry.Registry) (Engine, error) {
			e := new(OrEngine)
			return asEngine(e, e.resume(edb, es, orLayout, reg))
		}},
	ProtocolDynamicORAM: {name: "ex-oram", paper: "Ex-ORAM", encrypted: true,
		open: func(_ *relation.Relation, edb *EncryptedDB, _ int, reg *telemetry.Registry) (Engine, error) {
			return asEngine(newExEngine(edb, reg))
		},
		resume: func(edb *EncryptedDB, es *EngineState, reg *telemetry.Registry) (Engine, error) {
			e := new(ExEngine)
			return asEngine(e, e.resume(edb, es, exLayout, reg))
		}},
	ProtocolPlaintext: {name: "plaintext", paper: "Plaintext",
		open: func(rel *relation.Relation, _ *EncryptedDB, _ int, _ *telemetry.Registry) (Engine, error) {
			return newPlainEngine(rel), nil
		}},
	ProtocolEnclave: {name: "enclave", paper: "Enclave",
		open: func(rel *relation.Relation, _ *EncryptedDB, workers int, _ *telemetry.Registry) (Engine, error) {
			return newEnclaveEngine(rel, workers), nil
		}},
	ProtocolDeterministic: {name: "deterministic", paper: "Deterministic", encrypted: true,
		open: func(_ *relation.Relation, edb *EncryptedDB, _ int, _ *telemetry.Registry) (Engine, error) {
			return newDetEngine(edb), nil
		}},
}

// asEngine is a row's engine e, or a nil Engine beside err: e itself would
// be a non-nil Engine holding a nil or half-built engine.
func asEngine[E Engine](e E, err error) (Engine, error) {
	if err != nil {
		return nil, err
	}
	return e, nil
}

// ProtocolNames lists every name ParseProtocol accepts, separated by "|", for
// help and error texts.
func ProtocolNames() string {
	names := make([]string, len(protocols))
	for p, row := range protocols {
		names[p] = row.name
	}
	return strings.Join(names, "|")
}

func (p Protocol) known() bool { return p >= 0 && int(p) < len(protocols) }

// String names the protocol.
func (p Protocol) String() string {
	if !p.known() {
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
	return protocols[p].name
}

// Paper names the protocol as the paper's evaluation does: Or-ORAM, Ex-ORAM,
// Sort.
func (p Protocol) Paper() string {
	if !p.known() {
		return p.String()
	}
	return protocols[p].paper
}

// Resumable reports whether p's row has a resume column: its runs checkpoint.
func (p Protocol) Resumable() bool { return p.known() && protocols[p].resume != nil }

// ParseProtocol parses a protocol name as printed by String.
func ParseProtocol(s string) (Protocol, error) {
	for p, row := range protocols {
		if row.name == s {
			return Protocol(p), nil
		}
	}
	return 0, fmt.Errorf("core: unknown protocol %q (want %s)", s, ProtocolNames())
}

// dbNames numbers the databases Open uploads, so two over one service never
// collide on object names.
var dbNames atomic.Int64

// Open builds protocol p's engine over rel, instrumented with reg (nil: not
// instrumented). An encrypted protocol's relation is first uploaded to svc
// under a fresh 128-bit key that never leaves the client, as database
// fd<N> with capacity for headroom appended rows, and the handle checkpoints
// need is returned beside the engine; the other protocols leave svc alone
// and return a nil handle. workers is the Sort and enclave sorting networks'
// parallelism.
func Open(svc store.Service, rel *relation.Relation, p Protocol, workers, headroom int, reg *telemetry.Registry) (Engine, *EncryptedDB, error) {
	return open(svc, fmt.Sprintf("fd%d", dbNames.Add(1)), rel, p, workers, headroom, reg)
}

// open is Open with the database name given.
func open(svc store.Service, name string, rel *relation.Relation, p Protocol, workers, headroom int, reg *telemetry.Registry) (Engine, *EncryptedDB, error) {
	if !p.known() {
		return nil, nil, fmt.Errorf("core: unknown protocol %v", p)
	}
	row := &protocols[p]
	var edb *EncryptedDB
	if row.encrypted {
		key, err := crypto.NewKey()
		if err != nil {
			return nil, nil, err
		}
		cipher, err := crypto.NewCipher(key)
		if err != nil {
			return nil, nil, err
		}
		// Attached before the upload, so integrity_checks_total covers the
		// database's whole life.
		cipher.SetTelemetry(reg)
		if edb, err = upload(svc, cipher, name, rel, rel.NumRows()+headroom); err != nil {
			return nil, nil, err
		}
	}
	eng, err := row.open(rel, edb, workers, reg)
	if err != nil {
		return nil, nil, err
	}
	return eng, edb, nil
}

// ResumeEngine rebuilds, instrumented with reg, the engine and database handle
// a checkpoint describes over svc, and names its protocol: the engine state's
// Kind. The server must hold exactly what it held when the checkpoint was
// taken (VerifyEpoch; see oramCore.resume).
func ResumeEngine(svc store.Service, cp *Checkpoint, reg *telemetry.Registry) (Engine, *EncryptedDB, Protocol, error) {
	p, err := ParseProtocol(cp.Engine.Kind)
	if err != nil || !p.Resumable() {
		return nil, nil, 0, fmt.Errorf("%w: no engine of kind %q resumes", ErrCorruptCheckpoint, cp.Engine.Kind)
	}
	edb, err := attachEDB(svc, cp.EDB)
	if err != nil {
		return nil, nil, 0, err
	}
	edb.cipher.SetTelemetry(reg)
	eng, err := protocols[p].resume(edb, cp.Engine, reg)
	if err != nil {
		return nil, nil, 0, err
	}
	return eng, edb, p, nil
}
