package navigation

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrNotInContext is returned when a traversal is attempted from a node
// that is not a member of the session's current context.
var ErrNotInContext = errors.New("navigation: node not in current context")

// ErrNoSuchEdge is returned when the current context offers no edge of the
// requested kind from the current position.
var ErrNoSuchEdge = errors.New("navigation: no such traversal from here")

// ErrNoHistory is returned by Back and Forward when the session's
// navigation history has no entry in the requested direction.
var ErrNoHistory = errors.New("navigation: no history in that direction")

// Visit records one step of a session's history.
type Visit struct {
	// Context is the resolved context name ("" for the hub of none).
	Context string
	// NodeID is the visited node ("_index" for a hub page).
	NodeID string
}

// Session tracks a user's position in the navigation space: the current
// node and, crucially, the context through which it was reached. This is
// the paper's §2 museum semantics — the same painting answers "Next"
// differently when entered via its author than via its movement.
//
// Besides the append-only trail (the analytics log of every position the
// session occupied), a Session keeps a genuine navigation history in the
// sense of Brewster & Jeffrey's "A Model of Navigation History": a list
// of entries with a current cursor. Navigating somewhere new truncates
// the forward part of the list and appends; Back and Forward move the
// cursor without growing the list; revisiting the current position is a
// reload and leaves the history untouched. Traversals (Next, Prev, Up,
// Select) always act from the cursor's position — a session that went
// Back is mid-history, and its Next is the next of where it stands, not
// of the trail tip. The cursor's entry is the position: a session keeps
// no other.
//
// A session holds its lists as symbols of its lineage's table (see
// Lineage), eight bytes a visit, and holds no model: each call resolves
// against the newest model the lineage has published when the call
// begins. A mutation published between two calls therefore changes what
// the second sees — including between the server's Rebase and the step
// that follows it, exactly as if the request had arrived a moment
// later. A position the newest model no longer has is kept, and a
// traversal from it fails.
//
// A Session is safe for concurrent use: one visitor may have several
// in-flight requests (tabs, prefetching agents) mutating the same trail.
type Session struct {
	mu  sync.Mutex
	lin *Lineage
	// history is the trail.
	history []visit
	// nav is the navigation-history list and cur the cursor into it;
	// nav[cur] is the current position once the session entered a
	// context. Back/forward move cur; a navigation truncates nav[cur+1:]
	// and appends. The front is capped at the trail limit by advancing
	// the slice start (the append realloc compacts the backing array
	// once per ~limit steps, so the cap is amortized O(1) per step).
	nav []visit
	cur int
	// limit caps the trail at its most-recent limit visits (0 keeps
	// everything). The internal buffer trims with a little slack so the
	// cap costs one copy per limit/4 steps, not one per step; History
	// and State always expose exactly the most-recent limit.
	limit int
}

// SetTrailLimit caps the session's trail at its most-recent n visits
// (0 restores unlimited growth) and trims immediately. Long-lived
// sessions — a crawler walking a million pages on one cookie — keep
// bounded memory and bounded persistence records; navigation semantics
// never read the trimmed tail, so traversal behaviour is unchanged.
func (s *Session) SetTrailLimit(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limit = n
	if n > 0 && len(s.history) > n {
		s.history = trimTrail(s.history, n)
	}
	s.trimNavLocked()
}

// trimNavLocked caps the navigation-history list at the trail limit by
// dropping its oldest entries — but never the current one or anything
// forward of it, so Back simply bottoms out earlier and Forward is
// unaffected. Dropping advances the slice start; the next append that
// outgrows the (shrunken) capacity reallocates and compacts, so the
// amortized cost per navigation is O(1) and the backing array stays
// within a small constant of the limit.
func (s *Session) trimNavLocked() {
	if s.limit <= 0 {
		return
	}
	for len(s.nav) > s.limit && s.cur > 0 {
		s.nav = s.nav[1:]
		s.cur--
	}
}

// visitLocked navigates to v: the trail logs it, and the history moves
// to it per the Brewster–Jeffrey semantics — navigating to the current
// position is a reload and changes nothing; navigating anywhere else
// discards the forward history (the entries a Back had stepped away
// from), appends the new position, and moves the cursor to it.
func (s *Session) visitLocked(v visit) {
	s.recordVisitLocked(v)
	if len(s.nav) == 0 {
		s.nav = append(s.nav, v)
		s.cur = 0
		return
	}
	if s.nav[s.cur] == v {
		return // reload: history is untouched
	}
	// Discarded forward entries may be overwritten in place: every
	// exported view of the history (State, NavHistory) is a copy.
	s.nav = append(s.nav[:s.cur+1], v)
	s.cur = len(s.nav) - 1
	s.trimNavLocked()
}

// recordVisitLocked appends a visit, trimming the trail once it
// overruns the cap by a quarter (amortized O(1) per step).
func (s *Session) recordVisitLocked(v visit) {
	s.history = append(s.history, v)
	if s.limit > 0 && len(s.history) > s.limit+s.limit/4 {
		s.history = trimTrail(s.history, s.limit)
	}
}

// trailLocked is the externally visible trail: the most-recent limit
// visits (the buffer may briefly hold up to limit/4 more).
func (s *Session) trailLocked() []visit {
	h := s.history
	if s.limit > 0 && len(h) > s.limit {
		h = h[len(h)-s.limit:]
	}
	return h
}

// trimTrail copies the most-recent limit visits into a fresh slice
// (with trim slack), releasing the old backing array.
func trimTrail(h []visit, limit int) []visit {
	trimmed := make([]visit, limit, limit+limit/4+1)
	copy(trimmed, h[len(h)-limit:])
	return trimmed
}

// hereLocked returns the current position: the zero visit before any
// EnterContext.
func (s *Session) hereLocked() visit {
	if len(s.nav) == 0 {
		return visit{}
	}
	return s.nav[s.cur]
}

// NewSession starts a session in the lineage of model. A lineage that
// has published no model yet publishes model.
func NewSession(model *ResolvedModel) *Session {
	model.lin.newest.CompareAndSwap(nil, model)
	return &Session{lin: model.lin}
}

// Model returns the model the session resolves against: the newest its
// lineage has published.
func (s *Session) Model() *ResolvedModel {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lin.Newest()
}

// EnterContext moves the session into the named context at the given node
// (or at the hub when nodeID is HubID or empty and the structure has one).
func (s *Session) EnterContext(contextName, nodeID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enterLocked(contextName, nodeID)
}

// enterLocked is EnterContext with s.mu held.
func (s *Session) enterLocked(contextName, nodeID string) error {
	rc := s.lin.Newest().Context(contextName)
	if rc == nil {
		return fmt.Errorf("navigation: unknown context %q", contextName)
	}
	if nodeID == "" {
		if rc.Def.Access.HasHub() {
			nodeID = HubID
		} else if len(rc.Members) > 0 {
			nodeID = rc.Members[0].ID()
		} else {
			return fmt.Errorf("navigation: context %q is empty", contextName)
		}
	}
	node, ok := rc.symOf(nodeID)
	if !ok {
		return fmt.Errorf("%w: %q in %q", ErrNotInContext, nodeID, contextName)
	}
	s.visitLocked(visit{rc.sym, node})
	return nil
}

// Context returns the current context in the newest model, or nil
// before EnterContext or when that model no longer has the position.
func (s *Session) Context() *ResolvedContext {
	rc, _ := s.Location()
	return rc
}

// Location returns the current context and node id as one consistent
// snapshot. Callers that need both must use this rather than separate
// Context/Here calls, which could interleave with a concurrent
// traversal on the same session. The context is nil before
// EnterContext, and when the newest model no longer has the position.
func (s *Session) Location() (*ResolvedContext, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.nav) == 0 {
		return nil, ""
	}
	here := s.nav[s.cur]
	node := s.lin.name(here.node)
	if rc, g := s.lin.Newest().locate(s.lin.name(here.ctx), node); g >= 0 {
		return rc, node
	}
	return nil, node
}

// Current returns the current position by name, whether or not the
// newest model still has it: the zero Visit before EnterContext.
func (s *Session) Current() Visit {
	s.mu.Lock()
	defer s.mu.Unlock()
	here := s.hereLocked()
	return Visit{Context: s.lin.name(here.ctx), NodeID: s.lin.name(here.node)}
}

// Here returns the current node, or nil when on a hub page.
func (s *Session) Here() *Node {
	rc, node := s.Location()
	if rc == nil || node == HubID {
		return nil
	}
	return rc.Member(node)
}

// AtHub reports whether the session is on the context's entry page.
func (s *Session) AtHub() bool {
	rc, node := s.Location()
	return rc != nil && node == HubID
}

// visitsLocked returns visits in their exported form: one allocation,
// the list, whose strings are the table's.
func (s *Session) visitsLocked(vs []visit) []Visit {
	if len(vs) == 0 {
		return nil
	}
	names := *s.lin.names.Load()
	out := make([]Visit, len(vs))
	for i, v := range vs {
		out[i] = Visit{Context: names[v.ctx], NodeID: names[v.node]}
	}
	return out
}

// History returns the visit trail in order (capped at the trail limit).
func (s *Session) History() []Visit {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.visitsLocked(s.trailLocked())
}

// resolveLocked resolves a visit against the newest model. op names
// the caller in the error.
func (s *Session) resolveLocked(v visit, op string) (*ResolvedContext, int, error) {
	return s.lin.Newest().resolve(s.lin.name(v.ctx), s.lin.name(v.node), op)
}

// fromLocked resolves the current position for a traversal from it:
// its context and its OutEdges group.
func (s *Session) fromLocked() (*ResolvedContext, int, error) {
	if len(s.nav) == 0 {
		return nil, 0, fmt.Errorf("navigation: no current context")
	}
	return s.resolveLocked(s.nav[s.cur], "traversal")
}

// moveLocked navigates along an edge of rc to the edge's target.
func (s *Session) moveLocked(rc *ResolvedContext, to string) error {
	node, ok := rc.symOf(to)
	if !ok {
		return fmt.Errorf("%w: edge target %q in %q", ErrNotInContext, to, rc.Name)
	}
	s.visitLocked(visit{rc.sym, node})
	return nil
}

// follow moves along the first out-edge of the given kind.
func (s *Session) follow(kind EdgeKind) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rc, g, err := s.fromLocked()
	if err != nil {
		return err
	}
	for _, e := range rc.outEdgesOf(g) {
		if e.Kind == kind {
			return s.moveLocked(rc, e.To)
		}
	}
	return fmt.Errorf("%w: %s from %q in %q", ErrNoSuchEdge, kind, s.lin.name(s.nav[s.cur].node), rc.Name)
}

// Next moves to the following member of the current context.
func (s *Session) Next() error { return s.follow(EdgeNext) }

// Prev moves to the preceding member of the current context.
func (s *Session) Prev() error { return s.follow(EdgePrev) }

// Up moves to the context's entry page.
func (s *Session) Up() error { return s.follow(EdgeUp) }

// Select moves from a hub page to the named member.
func (s *Session) Select(nodeID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rc, g, err := s.fromLocked()
	if err != nil {
		return err
	}
	for _, e := range rc.outEdgesOf(g) {
		if e.Kind == EdgeMember && e.To == nodeID {
			return s.moveLocked(rc, e.To)
		}
	}
	return fmt.Errorf("%w: member %q from %q in %q", ErrNoSuchEdge, nodeID, s.lin.name(s.nav[s.cur].node), rc.Name)
}

// Back moves the cursor one entry toward the start of the navigation
// history — the browser's Back button over the session's traversal
// history. The history list itself is unchanged, so a later Forward
// returns here; a later navigation discards the forward part instead
// (truncate-on-new-navigation). Back fails with ErrNoHistory at the
// start of the history, and with a resolution error when the newest
// model no longer has the target entry — the session then stays where
// it is.
func (s *Session) Back() error { return s.seek(-1) }

// Forward moves the cursor one entry toward the end of the navigation
// history — it undoes a Back, and only a Back: after a new navigation
// there is no forward history. It fails with ErrNoHistory at the end
// of the history.
func (s *Session) Forward() error { return s.seek(+1) }

// seek moves the history cursor by delta (±1), re-resolving the target
// entry against the newest model before committing.
func (s *Session) seek(delta int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	target := s.cur + delta
	if len(s.nav) == 0 || target < 0 || target >= len(s.nav) {
		return fmt.Errorf("%w (cursor %d of %d)", ErrNoHistory, s.cur, len(s.nav))
	}
	v := s.nav[target]
	if _, _, err := s.resolveLocked(v, "history entry"); err != nil {
		return err
	}
	s.cur = target
	// Re-arriving via history is still a visit the trail logs — the
	// analytics view of "where has this visitor been" includes the
	// positions reached by going back.
	s.recordVisitLocked(v)
	return nil
}

// CanBack reports whether the history has an entry before the cursor.
func (s *Session) CanBack() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur > 0 && len(s.nav) > 0
}

// CanForward reports whether the history has an entry past the cursor.
func (s *Session) CanForward() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur < len(s.nav)-1
}

// NavHistory returns a copy of the navigation-history list and the
// cursor into it (nav[cursor] is the current position). Before any
// EnterContext the list is empty and the cursor 0.
func (s *Session) NavHistory() ([]Visit, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.visitsLocked(s.nav), s.cur
}

// SessionState is the serializable snapshot of a Session: the current
// position plus the full context trail. It is what the server's
// persistence layer writes through a storage.Store so a visitor's
// navigation survives a process restart.
type SessionState struct {
	// Context is the current resolved context name ("" before any
	// EnterContext).
	Context string `json:"context,omitempty"`
	// NodeID is the current node (HubID on an entry page).
	NodeID string `json:"node,omitempty"`
	// History is the visit trail in order.
	History []Visit `json:"history,omitempty"`
	// Nav is the navigation-history list (back/forward entries) and
	// Cursor the index of the current position within it. Records
	// written before histories existed carry neither; restore
	// synthesizes a single-entry history from the position.
	Nav    []Visit `json:"nav,omitempty"`
	Cursor int     `json:"cursor,omitempty"`
}

// State returns a consistent snapshot of the session for serialization.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	here := s.hereLocked()
	return SessionState{
		Context: s.lin.name(here.ctx),
		NodeID:  s.lin.name(here.node),
		History: s.visitsLocked(s.trailLocked()),
		Nav:     s.visitsLocked(s.nav),
		Cursor:  s.cur,
	}
}

// AppendRecord appends the durable record of the session's current
// state, expiring at expires (zero for never), to dst: the bytes
// AppendRecord(dst, Record{State: s.State(), Expires: expires})
// appends, encoded straight from the session's symbols under its lock
// instead of from copies of its lists.
func (s *Session) AppendRecord(dst []byte, expires time.Time) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return appendSessionRecord(dst, expires, *s.lin.names.Load(), s.hereLocked(), s.trailLocked(), s.nav, s.cur)
}

// locate finds a position in the model: its context, nil when the
// model has none of that name, and its OutEdges group, -1 when the
// context lacks the node or, for HubID, an entry page.
func (rm *ResolvedModel) locate(context, node string) (*ResolvedContext, int) {
	rc := rm.Context(context)
	if rc == nil {
		return nil, -1
	}
	if node == HubID && !rc.Def.Access.HasHub() {
		return rc, -1
	}
	return rc, rc.group(node)
}

// resolve re-checks a stored position against the model: its context
// must exist, a hub position needs an access structure with an entry
// page, and a member position needs the node in the context. It returns
// the context and the position's OutEdges group; op names the caller in
// the error.
func (rm *ResolvedModel) resolve(context, node, op string) (*ResolvedContext, int, error) {
	rc, g := rm.locate(context, node)
	switch {
	case rc == nil:
		return nil, -1, fmt.Errorf("navigation: %s: unknown context %q", op, context)
	case g >= 0:
		return rc, g, nil
	case node == HubID:
		return nil, -1, fmt.Errorf("navigation: %s: context %q no longer has an entry page", op, context)
	default:
		return nil, -1, fmt.Errorf("%w: %s: %q in %q", ErrNotInContext, op, node, context)
	}
}

// RestoreSession rebuilds a session from a snapshot in the lineage of
// the given model: the history is restored verbatim (no new visit is
// appended), names the model no longer has included, and the position
// is re-resolved against the model. It fails when the snapshot's
// position no longer exists — the model changed under the stored trail
// — in which case the caller should start a fresh session. Every check
// comes before any name is interned, so a snapshot that fails to
// restore adds nothing to the lineage's table; one that restores adds
// each distinct name the table lacks, once, in one batch.
func RestoreSession(model *ResolvedModel, state SessionState) (*Session, error) {
	here := Visit{Context: state.Context, NodeID: state.NodeID}
	var nav []Visit
	cur := 0
	if here.Context != "" {
		if _, _, err := model.resolve(here.Context, here.NodeID, "restore"); err != nil {
			return nil, err
		}
		nav, cur = state.Nav, state.Cursor
		switch {
		case len(nav) == 0:
			// Pre-history record: the position is the whole known history.
			nav, cur = []Visit{here}, 0
		case cur < 0 || cur >= len(nav):
			return nil, fmt.Errorf("navigation: restore: cursor %d outside history of %d", cur, len(nav))
		case nav[cur] != here:
			return nil, fmt.Errorf("navigation: restore: history cursor disagrees with position %s/%s", here.Context, here.NodeID)
		}
	}
	s := NewSession(model)
	s.history, s.nav = model.internRecord(state.History, nav)
	s.cur = cur
	return s, nil
}

// Rebase re-resolves the session's position against rm, so a live
// visitor follows the navigation structure the pages are woven with.
// Within the session's lineage there is nothing to move — the session
// already resolves against the lineage's newest model — so Rebase only
// checks that rm has the position. A model of another lineage takes the
// session along: its lists are re-interned in rm's table, and it then
// resolves against the newest model of rm's lineage. The history is
// kept verbatim. Rebase fails when rm does not have the position (the
// context is gone, the node left it, the entry page vanished); the
// session is then unchanged and the caller should start a fresh one.
func (s *Session) Rebase(rm *ResolvedModel) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.nav) > 0 {
		if _, _, err := rm.resolve(s.lin.name(s.nav[s.cur].ctx), s.lin.name(s.nav[s.cur].node), "rebase"); err != nil {
			return err
		}
	}
	if rm.lin != s.lin {
		s.lin.remap(rm.lin, s.history, s.nav)
		rm.lin.newest.CompareAndSwap(nil, rm)
		s.lin = rm.lin
	}
	return nil
}

// SwitchContext re-enters the current node through another context that
// contains it — the museum visitor turning from the author tour to the
// movement tour at the same painting.
func (s *Session) SwitchContext(contextName string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	here := s.hereLocked()
	if len(s.nav) == 0 || here.node == symHub {
		return fmt.Errorf("navigation: can only switch contexts at a member node")
	}
	return s.enterLocked(contextName, s.lin.name(here.node))
}
