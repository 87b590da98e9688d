package store

import "strings"

// Database namespaces: a multi-tenant server hosts several databases on one
// Service by prefixing every object name with "<db>/". Engine-generated
// object names never contain '/' (they join components with ':'), so the
// first '/' unambiguously splits namespace from object. The empty namespace
// "" — names with no '/' at all — is the root namespace that single-tenant
// clients have always used; everything here is backward compatible with it.
//
// Leakage: the namespace prefix is part of the session identity the tenant
// already announced in its handshake, so prefixed names reveal nothing
// beyond which tenant is acting — the adversary's view of the whole server
// is the union of the per-tenant traces it would have seen from N
// single-tenant servers, plus the (public) interleaving. See DESIGN.md §12.

// NamespaceOf returns the database namespace an object name belongs to: the
// prefix before the first '/', or "" (the root namespace) when the name has
// none.
func NamespaceOf(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return ""
}

// ValidDBName reports whether db is usable as a database namespace: non-empty,
// at most 128 bytes, and drawn from [A-Za-z0-9._-] so it can never contain
// the '/' separator or frame-confusing bytes.
func ValidDBName(db string) bool {
	if db == "" || len(db) > 128 {
		return false
	}
	for i := 0; i < len(db); i++ {
		c := db[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Namespaced returns svc scoped to the given database namespace: every
// object name is prefixed with "<db>/", reveals are tagged per-tenant (the
// reveal log is part of the adversary's trace, and per-tenant tags keep the
// union-of-traces leakage argument syntactic — each logged disclosure names
// the tenant that made it), and Checkpoint/Stats act on the tenant's own
// recovery mark. It is what the transport server interposes once a session
// handshake has bound a connection to a database, so N tenants share one
// backend without key collisions. An empty db returns svc unchanged (the root
// namespace needs no prefixing).
func Namespaced(svc Service, db string) Service {
	if db == "" {
		return svc
	}
	prefix := db + "/"
	return Adapt(func(op *Op, res *Result) error {
		// The op is scoped in place and restored: a layer above (retry) may
		// issue the same Op again.
		name, outer, ops := op.Name, op.DB, op.Ops
		switch op.Kind {
		case KindCheckpoint, KindStats:
			op.DB = db
		case KindBatch:
			// A backend Batcher still gets the whole batch in one call.
			op.Ops = make([]BatchOp, len(ops))
			for i, b := range ops {
				b.Name = prefix + b.Name
				op.Ops[i] = b
			}
		default:
			op.Name = prefix + name
		}
		err := Invoke(svc, op, res)
		op.Name, op.DB, op.Ops = name, outer, ops
		return err
	})
}
