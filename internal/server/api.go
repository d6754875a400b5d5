// This file is the /api/v1 control plane: every handler here mutates or
// inspects the model under operator authority, off the request hot path.
// The handlers are methods of Server, the one type holding the App.

package server

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/analytics"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/navigation"
	"repro/internal/obs"
)

// maxAPIBody bounds control-plane request bodies: a structure spec or a
// stylesheet is kilobytes, so anything past this is a mistake (or an
// attack), not a bigger site.
const maxAPIBody = 1 << 20

// WithAPIToken enables the /api/v1 control plane, guarded by the given
// bearer token: every request must carry "Authorization: Bearer <tok>".
// Without this option (or with an empty token) the control plane is
// disabled entirely — reads included — and every /api request answers
// 403, so a server nobody configured a token for exposes no mutation
// surface.
func WithAPIToken(tok string) Option {
	return func(s *Server) { s.apiToken = tok }
}

// serveAPI dispatches one control-plane request. Unlike the serving
// routes, API routes are method-aware per resource: a GET resource
// answers PUT with 405 and an Allow header, not a blanket rejection.
// Every response — errors included — is JSON with Cache-Control:
// no-store, so intermediaries never cache operational state.
//
//repro:apimux
func (s *Server) serveAPI(w http.ResponseWriter, r *http.Request, rt reqTrace) {
	w.Header().Set("Cache-Control", "no-store")
	// The control plane always propagates trace context — it is off the
	// hot path, and apiError reads the header back to stamp the trace id
	// into structured error bodies.
	if tp := rt.traceparent(); tp != "" {
		w.Header().Set("Traceparent", tp)
	}
	if r.URL.Path != api.BasePath && !strings.HasPrefix(r.URL.Path, api.BasePath+"/") {
		apiError(w, http.StatusNotFound, "unknown API version (this server speaks %s)", api.BasePath)
		return
	}
	if s.apiToken == "" {
		apiError(w, http.StatusForbidden,
			"control plane disabled: the server was started without an API token")
		return
	}
	if !s.apiAuthorized(r) {
		w.Header().Set("WWW-Authenticate", `Bearer realm="navigation control plane"`)
		apiError(w, http.StatusUnauthorized, "missing or invalid bearer token")
		return
	}

	// HEAD rides every GET resource: same headers, counted body.
	method := r.Method
	if method == http.MethodHead {
		hw := &headWriter{inner: w}
		defer hw.finish()
		w = hw
		method = http.MethodGet
	}

	rest := strings.Trim(strings.TrimPrefix(r.URL.Path, api.BasePath), "/")
	segs := strings.Split(rest, "/")
	switch {
	case rest == "":
		if allowMethods(w, method, http.MethodGet) {
			s.apiIndex(w)
		}
	case rest == "model":
		if allowMethods(w, method, http.MethodGet) {
			s.apiModel(w)
		}
	case rest == "contexts":
		if allowMethods(w, method, http.MethodGet) {
			s.apiContexts(w)
		}
	case len(segs) == 3 && segs[0] == "contexts" && segs[2] == "structure":
		switch method {
		case http.MethodGet:
			s.apiStructureGet(w, segs[1])
		case http.MethodPut:
			s.apiStructurePut(w, r, segs[1], rt)
		default:
			allowMethods(w, method, http.MethodGet, http.MethodPut)
		}
	case len(segs) == 2 && segs[0] == "documents":
		if allowMethods(w, method, http.MethodPatch) {
			s.apiDocumentPatch(w, r, segs[1], rt)
		}
	case rest == "stylesheet":
		switch method {
		case http.MethodGet:
			s.apiStylesheetGet(w)
		case http.MethodPut:
			s.apiStylesheetPut(w, r, rt)
		case http.MethodDelete:
			s.apiStylesheetDelete(w, rt)
		default:
			allowMethods(w, method, http.MethodGet, http.MethodPut, http.MethodDelete)
		}
	case rest == "analytics/graph":
		if allowMethods(w, method, http.MethodGet) {
			s.apiGraph(w)
		}
	case rest == "events":
		if allowMethods(w, method, http.MethodGet) {
			s.apiEvents(w, r)
		}
	case rest == "traces":
		if allowMethods(w, method, http.MethodGet) {
			s.apiTraces(w, r)
		}
	case rest == "snapshot":
		if allowMethods(w, method, http.MethodPost) {
			s.apiSnapshot(w, rt)
		}
	case rest == "adapt":
		if allowMethods(w, method, http.MethodPost) {
			s.apiAdapt(w)
		}
	default:
		apiError(w, http.StatusNotFound, "no such control-plane resource %q", r.URL.Path)
	}
}

// apiAuthorized checks the bearer token in constant time.
func (s *Server) apiAuthorized(r *http.Request) bool {
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if !strings.HasPrefix(auth, prefix) {
		return false
	}
	tok := strings.TrimSpace(strings.TrimPrefix(auth, prefix))
	return subtle.ConstantTimeCompare([]byte(tok), []byte(s.apiToken)) == 1
}

// allowMethods admits the listed methods and answers anything else with
// 405 and an Allow header (HEAD is implied wherever GET is allowed).
func allowMethods(w http.ResponseWriter, method string, allowed ...string) bool {
	for _, m := range allowed {
		if method == m {
			return true
		}
	}
	var list []string
	for _, m := range allowed {
		list = append(list, m)
		if m == http.MethodGet {
			list = append(list, http.MethodHead)
		}
	}
	allow := strings.Join(list, ", ")
	w.Header().Set("Allow", allow)
	apiError(w, http.StatusMethodNotAllowed, "method %s not allowed (allow: %s)", method, allow)
	return false
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// apiError emits the structured JSON error every control-plane failure
// carries. When the response already carries trace context (serveAPI
// and the shed path set Traceparent before any body is written), the
// trace id rides the error body too, so a failed call is joinable to
// its trace without parsing headers.
func apiError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, api.ErrorBody{Error: api.Error{
		Status:  status,
		Message: fmt.Sprintf(format, args...),
		TraceID: traceIDFromHeader(w.Header().Get("Traceparent")),
	}})
}

// traceIDFromHeader pulls the 32-hex trace id out of a W3C traceparent
// header value, "" when the header is absent or malformed.
func traceIDFromHeader(tp string) string {
	if len(tp) != 55 {
		return ""
	}
	return tp[3:35]
}

// readBody drains a bounded request body: over-limit is 413, any other
// read failure (a truncated or malformed transfer) is 400.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxAPIBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			apiError(w, http.StatusRequestEntityTooLarge,
				"request body over %d bytes", maxAPIBody)
		} else {
			apiError(w, http.StatusBadRequest, "reading request body: %v", err)
		}
		return nil, false
	}
	return body, true
}

// decodeStrict unmarshals one JSON value, rejecting unknown fields and
// trailing content — half-applied or concatenated payloads must fail
// validation, not silently install their first value.
func decodeStrict(body []byte, out any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing content after the JSON value")
	}
	return nil
}

// apiIndex lists the control plane's resources — GET /api/v1 is the
// discoverable front door.
func (s *Server) apiIndex(w http.ResponseWriter) {
	writeJSON(w, http.StatusOK, struct {
		Version   string   `json:"version"`
		Endpoints []string `json:"endpoints"`
	}{
		Version: api.Version,
		Endpoints: []string{
			"GET " + api.BasePath + "/model",
			"GET " + api.BasePath + "/contexts",
			"GET|PUT " + api.BasePath + "/contexts/{family}/structure",
			"PATCH " + api.BasePath + "/documents/{id}",
			"GET|PUT|DELETE " + api.BasePath + "/stylesheet",
			"GET " + api.BasePath + "/analytics/graph",
			"GET " + api.BasePath + "/events",
			"GET " + api.BasePath + "/traces",
			"POST " + api.BasePath + "/snapshot",
			"POST " + api.BasePath + "/adapt",
		},
	})
}

// apiModel serves the whole navigational aspect as a wire artifact:
// the SpecText declaration plus structured node classes, links,
// families (access structures as specs) and landmarks. Everything is
// read from one App.View snapshot, so a concurrent swap cannot make
// spec_text and the families' specs contradict each other.
func (s *Server) apiModel(w http.ResponseWriter) {
	view := s.app.View()
	rm := view.Resolved
	access := view.Access
	m := api.Model{
		SpecText:        view.SpecText,
		CacheGeneration: view.Generation,
		Landmarks:       rm.Model.Landmarks(),
	}
	for _, nc := range rm.Model.NodeClasses() {
		m.NodeClasses = append(m.NodeClasses, api.NodeClass{
			Name: nc.Name, Class: nc.Class, TitleAttr: nc.TitleAttr,
			Attrs: append([]string(nil), nc.AttrNames...),
		})
	}
	for _, l := range rm.Model.Links() {
		m.Links = append(m.Links, api.Link{Name: l.Name, Rel: l.Rel, From: l.From, To: l.To})
	}
	for _, c := range rm.Model.Contexts() {
		fam := api.Family{
			Name: c.Name, NodeClass: c.NodeClass,
			GroupBy: c.GroupBy, OrderBy: c.OrderBy,
			Where: c.Where, Show: c.Show,
		}
		if as := access[c.Name]; as != nil {
			fam.AccessText = navigation.AccessText(as)
			if spec, err := navigation.EncodeSpec(as); err == nil {
				fam.Access = spec
			}
		}
		for _, rc := range rm.ContextsOf(c.Name) {
			fam.Contexts = append(fam.Contexts, rc.Name)
		}
		m.Families = append(m.Families, fam)
	}
	writeJSON(w, http.StatusOK, m)
}

// apiContexts lists every resolved context instance.
func (s *Server) apiContexts(w http.ResponseWriter) {
	rm := s.app.Resolved()
	out := make([]api.Context, 0, len(rm.Contexts))
	for _, rc := range rm.Contexts {
		ids := make([]string, 0, len(rc.Members))
		for _, m := range rc.Members {
			ids = append(ids, m.ID())
		}
		out = append(out, api.Context{
			Name:      rc.Name,
			Family:    rc.Def.Name,
			Access:    navigation.AccessText(rc.Def.Access),
			Entry:     rc.EntryNode(),
			Members:   len(rc.Members),
			HasHub:    rc.Def.Access.HasHub(),
			MemberIDs: ids,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// familyContexts names the family's resolved instances.
func familyContexts(rm *navigation.ResolvedModel, family string) []string {
	var out []string
	for _, rc := range rm.ContextsOf(family) {
		out = append(out, rc.Name)
	}
	return out
}

// apiStructureGet serves one family's access structure as its wire
// spec — the artifact an operator GETs, edits and PUTs back. One View
// snapshot keeps the spec and the instance list from different models.
func (s *Server) apiStructureGet(w http.ResponseWriter, family string) {
	view := s.app.View()
	as, ok := view.Access[family]
	if !ok {
		apiError(w, http.StatusNotFound, "unknown context family %q", family)
		return
	}
	spec, err := navigation.EncodeSpec(as)
	if err != nil {
		apiError(w, http.StatusNotImplemented,
			"family %q serves a structure with no wire form: %v", family, err)
		return
	}
	writeJSON(w, http.StatusOK, api.Structure{
		Family:   family,
		Spec:     spec,
		Text:     navigation.AccessText(as),
		Contexts: familyContexts(view.Resolved, family),
	})
}

// apiStructurePut swaps one family's access structure from a wire spec
// — the paper's one-line maintenance change as one authenticated HTTP
// call. The spec is fully decoded and validated before any state moves,
// and the swap runs through the batched SetAccessStructures path, so
// the dependency-aware cache re-weaves only the family's own contexts
// and only their ETags rotate.
func (s *Server) apiStructurePut(w http.ResponseWriter, r *http.Request, family string, rt reqTrace) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var spec navigation.StructureSpec
	if err := decodeStrict(body, &spec); err != nil {
		apiError(w, http.StatusBadRequest, "malformed structure spec: %v", err)
		return
	}
	as, err := navigation.DecodeSpec(&spec)
	if err != nil {
		apiError(w, http.StatusBadRequest, "invalid structure spec: %v", err)
		return
	}
	// SetAccessStructures validates the family itself (one critical
	// section — a pre-check here would race a concurrent model change).
	mutFrom := rt.now()
	dropped, err := s.app.SetAccessStructures(map[string]navigation.AccessStructure{family: as})
	rt.span(obs.PhaseMutation, mutFrom)
	if errors.Is(err, core.ErrUnknownFamily) {
		apiError(w, http.StatusNotFound, "unknown context family %q", family)
		return
	}
	if err != nil {
		apiError(w, http.StatusInternalServerError, "swapping structure: %v", err)
		return
	}
	// One read of one generation: a concurrent mutation cannot land
	// between the contexts and the generation number.
	v := s.app.View()
	writeJSON(w, http.StatusOK, api.MutationResult{
		Family:          family,
		Contexts:        familyContexts(v.Resolved, family),
		DroppedPages:    dropped,
		CacheGeneration: v.Generation,
	})
}

// documentPatch is the PATCH /api/v1/documents/{id} request body.
type documentPatch struct {
	// Set maps attribute names to new values, validated as a batch
	// against the class declaration before any is applied.
	Set map[string]string `json:"set"`
}

// apiDocumentPatch edits the conceptual instance behind one data
// document and routes the change through the dependency-aware rebuild,
// both in one mutation, so concurrent PATCHes of one document apply in
// some serial order: a caption edit costs only that document's pages, a
// title edit invalidates as widely as it must — the rebuild diff, not
// the caller, decides the blast radius.
func (s *Server) apiDocumentPatch(w http.ResponseWriter, r *http.Request, id string, rt reqTrace) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var patch documentPatch
	if err := decodeStrict(body, &patch); err != nil {
		apiError(w, http.StatusBadRequest, "malformed document patch: %v", err)
		return
	}
	if len(patch.Set) == 0 {
		apiError(w, http.StatusBadRequest, `document patch sets nothing (want {"set": {"attr": "value"}})`)
		return
	}
	// The mutation phase spans the edit plus the dependency-aware
	// rebuild — the cost an operator's trace should attribute to a patch.
	mutFrom := rt.now()
	dropped, err := s.app.EditDocument(id, patch.Set)
	rt.span(obs.PhaseMutation, mutFrom)
	switch {
	case errors.Is(err, core.ErrUnknownInstance):
		apiError(w, http.StatusNotFound, "unknown instance %q", id)
		return
	case errors.Is(err, core.ErrInvalidEdit):
		apiError(w, http.StatusBadRequest, "invalid document patch: %v", err)
		return
	case err != nil:
		apiError(w, http.StatusInternalServerError, "re-deriving after edit: %v", err)
		return
	}
	v := s.app.View()
	var contexts []string
	for _, rc := range v.Resolved.ContextsContaining(id) {
		contexts = append(contexts, rc.Name)
	}
	writeJSON(w, http.StatusOK, api.MutationResult{
		Document:        navigation.NodeHref(id),
		Contexts:        contexts,
		DroppedPages:    dropped,
		CacheGeneration: v.Generation,
	})
}

// apiStylesheetGet serves back the stylesheet XML a PUT installed; the
// built-in (or a programmatically installed) presentation has no wire
// artifact and answers 404.
func (s *Server) apiStylesheetGet(w http.ResponseWriter) {
	src, ok := s.app.StylesheetXML()
	if !ok {
		apiError(w, http.StatusNotFound,
			"no stylesheet installed through the control plane (built-in presentation in effect)")
		return
	}
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	_, _ = io.WriteString(w, src)
}

// apiStylesheetPut installs a presentation stylesheet from its XML
// form. The source is parsed before anything changes; only pages woven
// through the stylesheet slot re-weave.
func (s *Server) apiStylesheetPut(w http.ResponseWriter, r *http.Request, rt reqTrace) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	if len(strings.TrimSpace(string(body))) == 0 {
		apiError(w, http.StatusBadRequest, "empty stylesheet (DELETE restores the built-in presentation)")
		return
	}
	mutFrom := rt.now()
	err := s.app.SetStylesheetXML(string(body))
	rt.span(obs.PhaseMutation, mutFrom)
	if err != nil {
		apiError(w, http.StatusBadRequest, "invalid stylesheet: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, api.MutationResult{
		Document:        "stylesheet",
		DroppedPages:    -1,
		CacheGeneration: s.app.CacheGeneration(),
	})
}

// apiStylesheetDelete restores the built-in presentation.
func (s *Server) apiStylesheetDelete(w http.ResponseWriter, rt reqTrace) {
	mutFrom := rt.now()
	s.app.SetStylesheet(nil)
	rt.span(obs.PhaseMutation, mutFrom)
	writeJSON(w, http.StatusOK, api.MutationResult{
		Document:        "stylesheet",
		DroppedPages:    -1,
		CacheGeneration: s.app.CacheGeneration(),
	})
}

// apiGraph exports the full transition graph the adaptation pipeline
// derives from — every context's visits, entries and edges, not the
// top-k truncation /stats shows.
func (s *Server) apiGraph(w http.ResponseWriter) {
	if s.rec == nil {
		writeJSON(w, http.StatusOK, api.Graph{Analytics: false})
		return
	}
	g := analytics.BuildGraph(s.rec.Snapshot())
	out := api.Graph{Analytics: true, Hops: g.Hops}
	if len(g.Contexts) > 0 {
		out.Contexts = make(map[string]api.GraphContext, len(g.Contexts))
		for name, cg := range g.Contexts {
			out.Contexts[name] = api.GraphContext{
				Hops:    cg.Hops,
				Visits:  cg.Visits,
				Entries: cg.Entries,
				Edges:   cg.Edges(),
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// apiEvents serves the mutation-trace ring: one record per model
// mutation (structure swap, document patch, stylesheet change) with
// its rebuild duration, diff verdict and invalidation blast radius,
// newest first. ?limit=N truncates; the ring itself is bounded, so the
// full payload stays small either way.
func (s *Server) apiEvents(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			apiError(w, http.StatusBadRequest, "limit must be a positive integer, got %q", q)
			return
		}
		limit = n
	}
	ring := s.app.Events()
	recent := ring.Recent(limit)
	out := api.EventsResponse{Total: ring.Total(), Events: make([]api.Event, 0, len(recent))}
	for _, e := range recent {
		out.Events = append(out.Events, api.Event{
			Seq:              e.Seq,
			Time:             e.Time,
			Kind:             e.Kind,
			Target:           e.Target,
			DurationSeconds:  e.Duration.Seconds(),
			PagesInvalidated: e.PagesInvalidated,
			Verdict:          e.Verdict,
			CacheGeneration:  e.CacheGeneration,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// apiTraces serves the request-trace ring: every sampled or slow
// request with its route, status, total duration and per-phase span
// breakdown, newest first. ?limit=N truncates; ?slow=1 keeps only the
// traces captured (or also qualifying) as slow. With tracing disabled
// the response says so instead of answering an empty ring that looks
// like a silent server.
func (s *Server) apiTraces(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			apiError(w, http.StatusBadRequest, "limit must be a positive integer, got %q", q)
			return
		}
		limit = n
	}
	slowOnly := false
	if q := r.URL.Query().Get("slow"); q != "" {
		v, err := strconv.ParseBool(q)
		if err != nil {
			apiError(w, http.StatusBadRequest, "slow must be a boolean, got %q", q)
			return
		}
		slowOnly = v
	}
	if s.tracer == nil {
		writeJSON(w, http.StatusOK, api.TracesResponse{Enabled: false, Traces: []api.Trace{}})
		return
	}
	ring := s.tracer.Ring()
	recent := ring.Recent(limit, slowOnly)
	out := api.TracesResponse{Enabled: true, Total: ring.Total(), Traces: make([]api.Trace, 0, len(recent))}
	for _, tr := range recent {
		t := api.Trace{
			Seq:             tr.Seq,
			Time:            tr.Time,
			TraceID:         tr.TraceID,
			SpanID:          tr.SpanID,
			ParentSpanID:    tr.ParentID,
			Route:           tr.Route,
			Path:            tr.Path,
			Status:          tr.Status,
			DurationSeconds: tr.Duration.Seconds(),
			Slow:            tr.Slow,
			Sampled:         tr.Sampled,
			TruncatedSpans:  tr.Truncated,
			Spans:           make([]api.TraceSpan, 0, len(tr.Spans)),
		}
		for _, sp := range tr.Spans {
			t.Spans = append(t.Spans, api.TraceSpan{
				Phase:      sp.Phase.Name(),
				StartNS:    sp.Start.Nanoseconds(),
				DurationNS: sp.Dur.Nanoseconds(),
			})
		}
		out.Traces = append(out.Traces, t)
	}
	writeJSON(w, http.StatusOK, out)
}

// apiSnapshot exports the woven site definition into the server's
// persistence backend on demand — the startup export, callable live.
func (s *Server) apiSnapshot(w http.ResponseWriter, rt reqTrace) {
	if s.persist == nil {
		apiError(w, http.StatusConflict, "no persistence backend configured (start with -store file)")
		return
	}
	storeFrom := rt.now()
	err := s.app.ExportSnapshot(s.persist)
	rt.span(obs.PhaseStorageOp, storeFrom)
	if err != nil {
		apiError(w, http.StatusInternalServerError, "exporting snapshot: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, api.SnapshotResult{
		Store:           s.persist.Name(),
		Documents:       s.app.DocumentCount(),
		CacheGeneration: s.app.CacheGeneration(),
	})
}

// apiAdapt forces one adaptation cycle — the derive loop's tick, on
// demand, so an operator can pull freshly recorded traffic into the
// linkbase without waiting out the interval.
func (s *Server) apiAdapt(w http.ResponseWriter) {
	derived, err := s.Adapt()
	if err != nil {
		apiError(w, http.StatusConflict, "%v", err)
		return
	}
	gen, _ := s.AdaptStats()
	writeJSON(w, http.StatusOK, api.AdaptResult{
		DerivedStructures: derived,
		AdaptGeneration:   gen,
		CacheGeneration:   s.app.CacheGeneration(),
	})
}
