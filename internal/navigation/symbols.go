package navigation

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/conceptual"
)

// visit is a Visit as a Session holds it: the symbols of its context
// name and node id in its lineage's table. It is eight bytes and holds
// no pointers, so a session's lists cost the collector nothing to scan.
// The zero visit names no position.
type visit struct{ ctx, node uint32 }

// The symbols every table starts with.
const (
	symNone uint32 = iota // "", which the zero visit names
	symHub                // HubID
)

// Lineage is a line of resolutions of one navigational model over one
// store: the symbol table its sessions' visits index, and the function
// that returns the model they resolve against; it holds no model.
// Model.Resolve starts a lineage of its own, whose function returns the
// model it resolved. An application that re-resolves its model after
// each mutation resolves every model into one lineage (Lineage.Resolve)
// whose function returns the model it serves, so a superseded model is
// garbage once no caller holds it.
//
// The table numbers each context name and node id once, in order of
// first sight, and never drops one. It grows only by the names a
// resolution into the lineage carries and by the names of the session
// records restored into it: its size is bounded by the distinct names
// the site has had plus those of the restored records, never by
// traffic, since no traversal interns anything. Readers never lock;
// interning is serialized.
type Lineage struct {
	// newest returns the model the lineage's sessions resolve against.
	newest func() *ResolvedModel

	// names is the table: names[sym] is the name of sym. Interning
	// appends under mu and then stores a new slice header, so a reader
	// never sees an index past the header it loaded.
	names atomic.Pointer[[]string]
	mu    sync.Mutex
	index map[string]uint32 // guarded by mu
}

// NewLineage returns a lineage with an empty table whose sessions
// resolve against the model newest returns, from any goroutine.
func NewLineage(newest func() *ResolvedModel) *Lineage {
	names := []string{symNone: "", symHub: HubID}
	l := &Lineage{newest: newest, index: map[string]uint32{"": symNone, HubID: symHub}}
	l.names.Store(&names)
	return l
}

// Newest returns the model the lineage's sessions resolve against.
func (l *Lineage) Newest() *ResolvedModel { return l.newest() }

// Len returns how many names the lineage's table holds.
func (l *Lineage) Len() int { return len(*l.names.Load()) }

// Resolve resolves m against store into the lineage, taking over from
// prev, an earlier resolution into it (or nil), every context the change
// from prev cannot have reached (see resolveInto).
func (l *Lineage) Resolve(m *Model, store *conceptual.Store, prev *ResolvedModel) (*ResolvedModel, error) {
	return m.resolveInto(l, store, prev)
}

// Lineage returns the lineage the model was resolved into.
func (rm *ResolvedModel) Lineage() *Lineage { return rm.lin }

// name returns the name of a symbol.
func (l *Lineage) name(sym uint32) string { return (*l.names.Load())[sym] }

// interner interns a batch of names under one acquisition of the
// table's lock.
type interner struct {
	l     *Lineage
	names []string
}

// intern runs fn with the table locked for a batch of interning, then
// publishes the names the batch added.
func (l *Lineage) intern(fn func(in *interner)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	in := interner{l: l, names: *l.names.Load()}
	fn(&in)
	if len(in.names) != l.Len() {
		l.names.Store(&in.names)
	}
}

// sym returns s's symbol, adding s to the table on first sight. A
// stored name is cloned when clone is set, so that a name cut out of a
// larger buffer (a decoded record) does not keep the buffer alive.
func (in *interner) sym(s string, clone bool) uint32 {
	if sym, ok := in.l.index[s]; ok {
		return sym
	}
	if clone {
		s = strings.Clone(s)
	}
	sym := uint32(len(in.names))
	in.names = append(in.names, s)
	in.l.index[s] = sym
	return sym
}

// symStale stands, while a record is restored, for a name the model's
// contexts do not hold; no table grows large enough to number a name
// with it.
const symStale = ^uint32(0)

// internRecord returns a restored record's trail and history as visits
// of rm's lineage's table. A name rm has resolves through the symbols
// its contexts hold, with no lock; only the names it lacks (contexts and
// members the site lost after the record was written, or a node the
// record places in a context that does not list it) are interned, in
// one batch. A name the table lacks is cloned, so the table never keeps
// a decoded record's buffer alive.
func (rm *ResolvedModel) internRecord(history, nav []Visit) (h, n []visit) {
	h, staleH := rm.visits(history)
	n, staleN := rm.visits(nav)
	if staleH || staleN {
		rm.lin.intern(func(in *interner) {
			in.unstale(h, history)
			in.unstale(n, nav)
		})
	}
	return h, n
}

// restoreRoom is the fewest visits a restored list has room to grow by.
const restoreRoom = 4

// visits returns vs as visits of rm's contexts' symbols, nil when there
// are none, with symStale for each name they do not hold, and whether
// there was one. The list has room for a quarter of its length more,
// and restoreRoom visits at least, so a returning visitor's next steps
// append in place rather than reallocate it at twice its length.
func (rm *ResolvedModel) visits(vs []Visit) ([]visit, bool) {
	if len(vs) == 0 {
		return nil, false
	}
	out := make([]visit, len(vs), len(vs)+max(len(vs)/4, restoreRoom))
	stale := false
	// A trail mostly steps within one context, so each context is
	// looked up once per run of visits in it.
	var rc *ResolvedContext
	for i, v := range vs {
		if rc == nil || rc.Name != v.Context {
			rc = rm.byName[v.Context]
		}
		w := visit{symStale, symStale}
		if rc != nil {
			w.ctx = rc.sym
			if sym, ok := rc.symOf(v.NodeID); ok {
				w.node = sym
			}
		}
		out[i] = w
		stale = stale || w.ctx == symStale || w.node == symStale
	}
	return out, stale
}

// unstale interns the names of vs that out holds as symStale.
func (in *interner) unstale(out []visit, vs []Visit) {
	for i := range out {
		if out[i].ctx == symStale {
			out[i].ctx = in.sym(vs[i].Context, true)
		}
		if out[i].node == symStale {
			out[i].node = in.sym(vs[i].NodeID, true)
		}
	}
}

// remap re-interns lists of visits of l in to's table, in place.
func (l *Lineage) remap(to *Lineage, lists ...[]visit) {
	names := *l.names.Load()
	to.intern(func(in *interner) {
		for _, vs := range lists {
			for i, v := range vs {
				vs[i] = visit{in.sym(names[v.ctx], false), in.sym(names[v.node], false)}
			}
		}
	})
}
